package branchbound

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
)

func makespan(t *testing.T, inst *core.Instance) int {
	t.Helper()
	sched, err := New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() {
		t.Fatalf("branch-and-bound schedule does not finish all jobs")
	}
	return res.Makespan()
}

func TestMatchesBruteForceSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(3)
		inst := gen.RandomUneven(rng, m, 1, 4, 0.05, 1.0)
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		if got := makespan(t, inst); got != want {
			t.Fatalf("trial %d: branch-and-bound %d != brute force %d\n%v", trial, got, want, inst)
		}
	}
}

func TestMatchesDPOnTwoProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		inst := gen.Random(rng, 2, 3+rng.Intn(5), 0.05, 1.0)
		want, err := optres2.New().Makespan(inst)
		if err != nil {
			t.Fatalf("optres2: %v", err)
		}
		if got := makespan(t, inst); got != want {
			t.Fatalf("trial %d: branch-and-bound %d != DP %d\n%v", trial, got, want, inst)
		}
	}
}

func TestPartitionGadget(t *testing.T) {
	yes, err := gen.PartitionGadget([]int64{3, 1, 2, 2}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := makespan(t, yes); got != 4 {
		t.Fatalf("YES gadget optimum = %d, want 4", got)
	}
	no, err := gen.PartitionGadget([]int64{2, 2, 2}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := makespan(t, no); got != 5 {
		t.Fatalf("NO gadget optimum = %d, want 5", got)
	}
}

func TestIncumbentIsReturnedWhenAlreadyOptimal(t *testing.T) {
	// A single processor: GreedyBalance is already optimal and the search
	// only confirms it.
	inst := core.NewInstance([]float64{0.2, 0.9, 0.4})
	if got := makespan(t, inst); got != 3 {
		t.Fatalf("makespan = %d, want 3", got)
	}
}

func TestEmptyInstance(t *testing.T) {
	sched, err := New().Schedule(context.Background(), core.NewInstance(nil))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if sched.Steps() != 0 {
		t.Fatalf("empty instance should give an empty schedule")
	}
}

func TestRejectsNonUnitSizes(t *testing.T) {
	inst := core.NewSizedInstance([]core.Job{{Req: 0.5, Size: 2}})
	if _, err := New().Schedule(context.Background(), inst); err == nil {
		t.Fatalf("expected error for non-unit sizes")
	}
}

// wideGadget is the Partition gadget over m even elements (2, ..., 2, plus a
// 4 in last place when m is even) that sum to twice an odd A: no subset of
// even elements reaches A, so it is a NO-instance that greedy cannot certify.
func wideGadget(t *testing.T, m int) *core.Instance {
	t.Helper()
	elems := make([]int64, m)
	for i := range elems {
		elems[i] = 2
	}
	if m%2 == 0 {
		elems[m-1] = 4
	}
	inst, err := gen.PartitionGadget(elems, 0.5/float64(m))
	if err != nil {
		t.Fatalf("PartitionGadget(m=%d): %v", m, err)
	}
	return inst
}

// TestRejectsTooManyProcessors checks that the kernel turns down instances
// beyond MaxProcessors with an error, before sizing any per-subset table.
func TestRejectsTooManyProcessors(t *testing.T) {
	for _, m := range []int{MaxProcessors + 1, 40, 63, 64, 65} {
		inst := wideGadget(t, m)
		if _, err := New().Schedule(context.Background(), inst); err == nil {
			t.Errorf("m=%d: expected a processor-count error", m)
		}
	}
}

func TestNodeLimit(t *testing.T) {
	// The Figure 5 construction keeps GreedyBalance far from the lower bound,
	// so the root is not pruned and the search must actually expand nodes —
	// and immediately trip the (absurdly small) node limit.
	s := &Scheduler{MaxNodes: 1}
	inst := gen.GreedyWorstCase(3, 3, 0.01)
	if _, err := s.Schedule(context.Background(), inst); err == nil {
		t.Fatalf("expected node-limit error")
	}
}

func TestNameAndExactness(t *testing.T) {
	if New().Name() != "branch-and-bound" || !New().IsExact() {
		t.Fatalf("unexpected identity")
	}
	if NewParallel().Name() != "branch-and-bound-parallel" || !NewParallel().IsExact() {
		t.Fatalf("unexpected identity of the parallel name")
	}
}

// hardInstance returns an adversarial instance whose exact search runs for
// many minutes on current hardware: GreedyBalance is a factor ~2-1/m off on
// it, so the incumbent bound prunes little and the search tree is enormous.
func hardInstance() *core.Instance {
	const m, blocks = 7, 3
	return gen.GreedyWorstCase(m, blocks, 1.0/float64(20*m*(m+1)))
}

// TestSerialContextCancellation covers the context plumbing of the search.
func TestSerialContextCancellation(t *testing.T) {
	inst := hardInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New().Schedule(ctx, inst)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("serial solver took %v to honour the deadline", elapsed)
	}
}

// movesCorpus is the corpus package moves checks its enumerator on (see its
// corpus_test.go), drawn in the same order: random, low-requirement and
// uneven instances for every m from 2 to 12, three mutation chains of m=10
// Partition gadgets, the nudge chain, and every two-processor pair of
// epsilonBoundaryValues.
func movesCorpus(tb testing.TB, rng *rand.Rand) []*core.Instance {
	tb.Helper()
	var insts []*core.Instance
	for m := 2; m <= 12; m++ {
		insts = append(insts,
			gen.Random(rng, m, 1+rng.Intn(4), 0.05, 0.95),
			gen.Random(rng, m, 3, 0.01, 0.3),
			gen.RandomUneven(rng, m, 1, 5, 0.05, 0.95))
	}
	for c := 0; c < 3; c++ {
		insts = append(insts, gen.MutateChain(rng, drawGadget(tb, rng, 10), 11)...)
	}
	insts = append(insts, nudgeChain(tb, 6)...)
	for _, a := range epsilonBoundaryValues {
		for _, b := range epsilonBoundaryValues {
			insts = append(insts, core.NewInstance([]float64{a, b}, []float64{b, a}))
		}
	}
	return insts
}

// TestParallelMatchesSerial pins the "branch-and-bound-parallel" name to the
// one search: on every instance of the moves corpus it returns a schedule
// bit-identical to New()'s, and it reports the same incumbent sequence under
// its own name.
func TestParallelMatchesSerial(t *testing.T) {
	improved := 0 // instances whose search reports beyond the seed
	for n, inst := range movesCorpus(t, rand.New(rand.NewSource(20260101))) {
		want := collectIncumbents(t, New(), inst)
		got := collectIncumbents(t, NewParallel(), inst)
		if len(want) > 1 {
			improved++
		}
		if len(got) != len(want) {
			t.Fatalf("instance %d: %d incumbent reports, serial %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != (progress.Incumbent{Solver: "branch-and-bound-parallel", Makespan: want[i].Makespan}) {
				t.Fatalf("instance %d: report %d is %+v, serial %+v", n, i, got[i], want[i])
			}
		}

		a, errA := New().Schedule(context.Background(), inst)
		b, errB := NewParallel().Schedule(context.Background(), inst)
		if errA != nil || errB != nil {
			t.Fatalf("instance %d: %v / %v", n, errA, errB)
		}
		if a.Steps() != b.Steps() {
			t.Fatalf("instance %d: %d steps, serial %d", n, b.Steps(), a.Steps())
		}
		for step := range a.Alloc {
			for i := range a.Alloc[step] {
				if math.Float64bits(a.Alloc[step][i]) != math.Float64bits(b.Alloc[step][i]) {
					t.Fatalf("instance %d: share (%d, %d) is %v, serial %v", n, step, i, b.Alloc[step][i], a.Alloc[step][i])
				}
			}
		}
	}
	if improved == 0 {
		t.Fatal("no corpus instance improves on its seed; the search's own reports go unchecked")
	}
	t.Logf("%d instances improve on their seed", improved)
}
