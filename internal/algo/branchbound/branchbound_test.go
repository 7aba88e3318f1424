package branchbound

import (
	"math/rand"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

func makespan(t *testing.T, inst *core.Instance) int {
	t.Helper()
	sched, err := New().Schedule(inst)
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
	sched, err := New().Schedule(core.NewInstance(nil))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if sched.Steps() != 0 {
		t.Fatalf("empty instance should give an empty schedule")
	}
}

func TestRejectsNonUnitSizes(t *testing.T) {
	inst := core.NewSizedInstance([]core.Job{{Req: 0.5, Size: 2}})
	if _, err := New().Schedule(inst); err == nil {
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

// TestRejectsTooManyProcessors checks that both kernels turn down instances
// beyond MaxProcessors with an error, before sizing any per-subset table.
func TestRejectsTooManyProcessors(t *testing.T) {
	for _, m := range []int{MaxProcessors + 1, 40, 63, 64, 65} {
		inst := wideGadget(t, m)
		if _, err := New().Schedule(inst); err == nil {
			t.Errorf("serial, m=%d: expected a processor-count error", m)
		}
		if _, err := NewParallel().Schedule(inst); err == nil {
			t.Errorf("parallel, m=%d: expected a processor-count error", m)
		}
	}
}

func TestNodeLimit(t *testing.T) {
	// The Figure 5 construction keeps GreedyBalance far from the lower bound,
	// so the root is not pruned and the search must actually expand nodes —
	// and immediately trip the (absurdly small) node limit.
	s := &Scheduler{MaxNodes: 1}
	inst := gen.GreedyWorstCase(3, 3, 0.01)
	if _, err := s.Schedule(inst); err == nil {
		t.Fatalf("expected node-limit error")
	}
}

func TestNameAndExactness(t *testing.T) {
	if New().Name() != "branch-and-bound" || !New().IsExact() {
		t.Fatalf("unexpected identity")
	}
}
