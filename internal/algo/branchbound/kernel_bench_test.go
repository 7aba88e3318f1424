package branchbound

import (
	"context"
	"strings"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
)

// wideManyProcInstance is a wide (8-processor) instance whose search space is
// genuinely explored. The harness corpus family "wide-many-proc" draws random
// wide instances, but on those the greedy seed already matches the work lower
// bound and the search confirms it in one node; the greedy worst case at the
// same width forces a deep search, which is what a node-throughput benchmark
// needs. (internal/harness itself cannot be imported here — it would cycle
// back through internal/solver.)
func wideManyProcInstance() *core.Instance {
	return gen.GreedyWorstCase(8, 2, 1.0/(20*8*9))
}

// benchNodeThroughput measures a kernel on an instance whose search is capped
// by MaxNodes, reporting node throughput. The cap makes the per-op work
// deterministic even when the full search space is astronomically larger, so
// nodes/s is comparable run to run; hitting the cap is the expected outcome,
// not a failure.
func benchNodeThroughput(b *testing.B, inst *core.Instance, kernel func(context.Context, *core.Instance) (*core.Schedule, error)) {
	b.Helper()
	var ctr progress.Counters
	ctx := progress.WithCounters(context.Background(), &ctr)
	run := func() {
		if _, err := kernel(ctx, inst); err != nil && !strings.Contains(err.Error(), "node limit") {
			b.Fatal(err)
		}
	}
	run() // warm the scratch pool
	ctr.Nodes.Store(0)
	ctr.Allocs.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	nodes := ctr.Nodes.Load()
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(nodes)/secs, "nodes/s")
	}
}

// benchMaxNodes caps the wide-many-proc searches: large enough to dominate
// warm-up effects, small enough that one op stays in the tens of
// milliseconds.
const benchMaxNodes = 200_000

// BenchmarkSerialWideManyProc measures serial kernel node throughput on a
// wide instance (8 processors); the per-node cost here is dominated by the
// successor enumeration — an O(2^k) subset scan plus O(successors) to derive
// and order the moves — and the canonical visited key.
func BenchmarkSerialWideManyProc(b *testing.B) {
	s := &Scheduler{MaxNodes: benchMaxNodes}
	benchNodeThroughput(b, wideManyProcInstance(), s.ScheduleContext)
}

// BenchmarkSerialHardExact runs the uncapped greedy-worst-case search: the
// single-core baseline of the exact kernel, regression-gated in CI.
func BenchmarkSerialHardExact(b *testing.B) {
	benchNodeThroughput(b, hardExactInstance(), New().ScheduleContext)
}
