package branchbound

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/moves"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
)

// TestScheduleSurvivesScratchReuse is the regression test for the path
// aliasing bug: the schedule a solve returns must be built from owned copies,
// so recycling the pooled scratch — including deliberately scribbling over
// every buffer a later solve would reuse — must not mutate it retroactively.
func TestScheduleSurvivesScratchReuse(t *testing.T) {
	// GreedyBalance is suboptimal on its worst-case family, so the search
	// improves on the seed and the returned schedule goes through the
	// path-stack incumbent copy — the code path that used to alias.
	inst := gen.GreedyWorstCase(4, 2, 1.0/(20*4*5))
	gbSched, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	gbRes, err := core.Execute(inst, gbSched)
	if err != nil {
		t.Fatal(err)
	}

	solve := New().Schedule
	t.Run("serial", func(t *testing.T) {
		sched, err := solve(context.Background(), inst)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		res, err := core.Execute(inst, sched)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !res.Finished() {
			t.Fatal("schedule does not finish all jobs")
		}
		if res.Makespan() >= gbRes.Makespan() {
			t.Fatalf("search did not improve on the greedy seed (%d vs %d); the test would not exercise the incumbent copy",
				res.Makespan(), gbRes.Makespan())
		}
		snap := sched.Clone()

		// Recycle the pool with unrelated solves, then scribble over every
		// buffer of a scratch prepared for the same instance. If any row of
		// the returned schedule aliases pooled memory, the comparison below
		// catches it.
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 4; i++ {
			if _, err := solve(context.Background(), gen.Random(rng, 3, 3, 0.1, 0.9)); err != nil {
				t.Fatalf("churn solve %d: %v", i, err)
			}
		}
		sc := getScratch(inst)
		for _, lvl := range sc.levels {
			for p := range lvl.done {
				lvl.done[p], lvl.rem[p], lvl.alloc[p] = 99, 99, 99
			}
		}
		sc.builder.Reset(inst)
		greedybalance.New().Build(&sc.builder)
		for _, row := range sc.builder.Rows() {
			for p := range row {
				row[p] = 99
			}
		}
		putScratch(sc)

		if sched.Steps() != snap.Steps() {
			t.Fatalf("schedule length changed after scratch reuse: %d vs %d", sched.Steps(), snap.Steps())
		}
		for tt := range sched.Alloc {
			for i := range sched.Alloc[tt] {
				if sched.Alloc[tt][i] != snap.Alloc[tt][i] {
					t.Fatalf("schedule mutated by scratch reuse at step %d proc %d: %v, snapshot %v",
						tt, i, sched.Alloc[tt][i], snap.Alloc[tt][i])
				}
			}
		}
	})
}

// TestStateKeyCanonicalUnderSymmetry checks the symmetry-breaking visited
// key: states that differ only by permuting processors with identical job
// sequences must encode to the same key, and genuinely different states must
// not collide.
func TestStateKeyCanonicalUnderSymmetry(t *testing.T) {
	// Processors 0 and 1 carry identical job sequences; processor 2 differs.
	inst := core.NewInstance(
		[]float64{0.3, 0.7},
		[]float64{0.3, 0.7},
		[]float64{0.5},
	)
	sc := getScratch(inst)
	defer putScratch(sc)
	if !sc.hasSym || sc.groupRep[1] != 0 || sc.groupRep[2] != 2 {
		t.Fatalf("symmetry groups not detected: hasSym=%v groupRep=%v", sc.hasSym, sc.groupRep)
	}

	key := func(done []int, rem []float64) []byte {
		return append([]byte(nil), sc.stateKey(done, rem)...)
	}
	a := key([]int{1, 0, 0}, []float64{0.7, 0.3, 0.5})
	b := key([]int{0, 1, 0}, []float64{0.3, 0.7, 0.5}) // procs 0 and 1 swapped
	if !bytes.Equal(a, b) {
		t.Fatalf("permuting identical processors changed the visited key:\n%x\nvs\n%x", a, b)
	}
	c := key([]int{1, 1, 0}, []float64{0.7, 0.7, 0.5})
	if bytes.Equal(a, c) {
		t.Fatal("distinct states collided on one visited key")
	}
	// Processor 2 has a different job sequence, so moving progress onto it is
	// a different state even though the (done, rem) multiset matches.
	d := key([]int{0, 0, 1}, []float64{0.3, 0.5, 0.7})
	if bytes.Equal(a, d) {
		t.Fatal("states differing on a non-symmetric processor collided")
	}
}

// epsilonBoundaryValues are requirements sitting exactly on, and a few ULP-ish
// nudges around, the share boundaries where the non-wasting split logic
// compares leftovers against the numeric tolerance.
var epsilonBoundaryValues = []float64{
	0.25 - 4e-10, 0.25, 0.25 + 4e-10,
	0.5 - 4e-10, 0.5, 0.5 + 4e-10,
	1.0 / 3, 2.0 / 3, 1,
}

// TestEpsilonBoundaryAgreement sweeps requirement pairs straddling the
// tolerance boundaries and asserts the kernel and the independent
// brute-force oracle agree on the optimum. This pins the
// epsilon-handling fix: every tolerance comparison routes through
// internal/numeric, so a value within Eps of a boundary is classified the
// same way by every solver.
func TestEpsilonBoundaryAgreement(t *testing.T) {
	serial := New()
	for _, a := range epsilonBoundaryValues {
		for _, b := range epsilonBoundaryValues {
			inst := core.NewInstance([]float64{a, b}, []float64{b, a})
			want, err := bruteforce.Makespan(inst)
			if err != nil {
				t.Fatalf("bruteforce(%v, %v): %v", a, b, err)
			}
			sched, err := serial.Schedule(context.Background(), inst)
			if err != nil {
				t.Fatalf("serial on reqs (%v, %v): %v", a, b, err)
			}
			if got := core.MustMakespan(inst, sched); got != want {
				t.Fatalf("serial on reqs (%v, %v): makespan %d, oracle %d", a, b, got, want)
			}
		}
	}
}

// FuzzEpsilonBoundary fuzzes four requirements into a two-processor instance
// and cross-checks the kernel against the brute-force oracle. The seeds sit
// on the boundary values where pre-fix kernels could disagree with the oracle
// about whether a leftover share still admits a partial assignment, and on a
// last job whose requirement lies below numeric.Eps.
func FuzzEpsilonBoundary(f *testing.F) {
	f.Add(0.25, 0.75, 0.5, 0.5)
	f.Add(0.5-4e-10, 0.5+4e-10, 0.25, 0.75)
	f.Add(1.0/3, 2.0/3, 1.0/3, 2.0/3)
	f.Add(1.0, 1e-9, 0.999999999, 0.25)
	f.Add(0.5, 5e-10, 0.5714285708571429, 0.05)

	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		for _, v := range []float64{a, b, c, d} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				t.Skip()
			}
		}
		inst := core.NewInstance([]float64{a, b}, []float64{c, d})
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Skip() // oracle rejects the instance
		}
		sched, err := New().Schedule(context.Background(), inst)
		if err != nil {
			t.Fatalf("serial: %v\n%v", err, inst)
		}
		if got := core.MustMakespan(inst, sched); got != want {
			t.Fatalf("serial makespan %d, oracle %d\n%v", got, want, inst)
		}
	})
}

// TestSteadyStateAllocsPerNode asserts the headline property of the scratch
// rewrite: once the pool is warm, a solve performs a constant number of
// allocations (seed schedule, result materialisation) regardless of how many
// nodes it explores — zero allocations per node, up to measurement noise from
// GC-cleared pools.
func TestSteadyStateAllocsPerNode(t *testing.T) {
	t.Run("serial", func(t *testing.T) { assertNoAllocsPerNode(t, hardExactInstance(), New().Schedule) })
	// The m=10 Partition-gadget root fills a 2^10-entry subset-sum table and
	// orders about a thousand successors; once warm, expanding it again must
	// not allocate. A whole gadget solve cannot show this: it runs the subset
	// scan at the root only, next to ~120 fixed allocations per solve.
	t.Run("partition-chain", func(t *testing.T) {
		for step, inst := range nudgeChain(t, 6) {
			sc := getScratch(inst)
			root := sc.level(0)
			buf := &root.moves
			expand := func() { moves.Expand(inst, &sc.expand, root.done, root.rem, buf, &sc.allocs) }
			expand()
			if buf.Len() < 100 {
				t.Fatalf("step %d: root has only %d successors; too few to exercise the expansion", step, buf.Len())
			}
			if allocs := testing.AllocsPerRun(20, expand); allocs != 0 {
				t.Errorf("step %d: a warm root expansion allocates %.1f times, want 0", step, allocs)
			}
			putScratch(sc)
		}
	})
}

func assertNoAllocsPerNode(t *testing.T, inst *core.Instance, kernel func(context.Context, *core.Instance) (*core.Schedule, error)) {
	t.Helper()
	// Warm the scratch pool and record the search size once.
	var ctr progress.Counters
	ctx := progress.WithCounters(context.Background(), &ctr)
	if _, err := kernel(ctx, inst); err != nil {
		t.Fatal(err)
	}
	nodes := ctr.Nodes.Load()
	if nodes < 10_000 {
		t.Fatalf("instance explores only %d nodes; too easy to measure steady-state allocations", nodes)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := kernel(context.Background(), inst); err != nil {
			t.Error(err)
		}
	})
	// The bound is deliberately generous: the GC may clear the scratch pool
	// between runs, forcing one full re-allocation of the arenas. What it
	// must exclude is any per-node allocation (the pre-rewrite kernels sat
	// above 4 allocs/node).
	if perNode := allocs / float64(nodes); perNode > 0.02 {
		t.Errorf("steady state allocates %.1f times per run over %d nodes = %.4f allocs/node, want ~0",
			allocs, nodes, perNode)
	}
}

// hardExactInstance is the instance of the HardExact kernel benchmarks: the
// greedy worst case forces a real search rather than an instant confirmation
// of the seed.
func hardExactInstance() *core.Instance {
	return gen.GreedyWorstCase(5, 2, 1.0/(20*5*6))
}

// TestVisitedResetForgetsEveryKey checks that a reset table holds none of
// the previous solve's states: after a solve that grew the table, and when
// the generation stamp wraps around to the value of an earlier solve.
func TestVisitedResetForgetsEveryKey(t *testing.T) {
	var vt visitedTable
	var allocs int64
	keys := make([][]byte, 3*visitedMinSize)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("state-%d", i))
	}
	solve := func(n int) {
		t.Helper()
		vt.reset(&allocs)
		for i, k := range keys[:n] {
			if vt.visit(k, 3, &allocs) {
				t.Fatalf("gen %d: key %d reported visited before this solve inserted it", vt.gen, i)
			}
		}
		for i, k := range keys[:n] {
			if !vt.visit(k, 3, &allocs) {
				t.Fatalf("gen %d: key %d not found at its own depth", vt.gen, i)
			}
		}
	}
	solve(len(keys)) // stamp 1; the table grows
	solve(visitedMinSize / 2)
	vt.gen = math.MaxUint32 - 1
	solve(visitedMinSize / 2) // the last stamp before the wrap
	solve(len(keys))          // wraps to stamp 1 again
	if vt.gen != 1 {
		t.Fatalf("stamp %d after the wrap, want 1", vt.gen)
	}
}
