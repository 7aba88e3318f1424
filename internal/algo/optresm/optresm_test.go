package optresm

import (
	"context"
	"math/rand"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/partition"
)

func solveAndExecute(t *testing.T, inst *core.Instance) int {
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
		t.Fatalf("schedule does not finish all jobs")
	}
	return res.Makespan()
}

func TestOptResAssignment2MatchesBruteForceTwoProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		inst := gen.RandomUneven(rng, 2, 1, 4, 0.05, 1.0)
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		if got := solveAndExecute(t, inst); got != want {
			t.Fatalf("trial %d: optresm %d != brute force %d\n%v", trial, got, want, inst)
		}
	}
}

func TestOptResAssignment2MatchesBruteForceThreeProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		inst := gen.RandomUneven(rng, 3, 1, 3, 0.05, 1.0)
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		if got := solveAndExecute(t, inst); got != want {
			t.Fatalf("trial %d: optresm %d != brute force %d\n%v", trial, got, want, inst)
		}
	}
}

func TestOptResAssignment2MatchesDPOnLargerTwoProcessorInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
		inst := gen.Random(rng, 2, 4+rng.Intn(5), 0.05, 1.0)
		want, err := optres2.New().Makespan(inst)
		if err != nil {
			t.Fatalf("optres2: %v", err)
		}
		if got := solveAndExecute(t, inst); got != want {
			t.Fatalf("trial %d: optresm %d != optres2 %d\n%v", trial, got, want, inst)
		}
	}
}

func TestOptResAssignment2FourProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		inst := gen.Random(rng, 4, 2, 0.05, 1.0)
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		if got := solveAndExecute(t, inst); got != want {
			t.Fatalf("trial %d: optresm %d != brute force %d\n%v", trial, got, want, inst)
		}
	}
}

func TestOptResAssignment2Figure2Input(t *testing.T) {
	if got := solveAndExecute(t, gen.Figure2()); got != 4 {
		t.Fatalf("Figure 2 optimum = %d, want 4", got)
	}
}

func TestTheorem4PartitionGadgetYesInstance(t *testing.T) {
	// A YES Partition instance reduces to a CRSharing instance with optimal
	// makespan exactly 4.
	elems := []int64{3, 1, 2, 2} // {3,1} vs {2,2}
	p := partition.New(elems...)
	yes, err := p.Decide()
	if err != nil || !yes {
		t.Fatalf("expected YES partition instance, got %v, %v", yes, err)
	}
	inst, err := gen.PartitionGadget(elems, 0.01)
	if err != nil {
		t.Fatalf("PartitionGadget: %v", err)
	}
	if got := solveAndExecute(t, inst); got != 4 {
		t.Fatalf("YES-instance gadget optimum = %d, want 4", got)
	}
}

func TestTheorem4PartitionGadgetNoInstance(t *testing.T) {
	// A NO Partition instance reduces to a CRSharing instance with optimal
	// makespan at least 5 (and exactly 5: the schedule of Figure 4b).
	elems := []int64{2, 2, 2} // sum 6, target 3, unreachable with even elements
	p := partition.New(elems...)
	yes, err := p.Decide()
	if err != nil || yes {
		t.Fatalf("expected NO partition instance, got %v, %v", yes, err)
	}
	inst, err := gen.PartitionGadget(elems, 0.01)
	if err != nil {
		t.Fatalf("PartitionGadget: %v", err)
	}
	if got := solveAndExecute(t, inst); got != 5 {
		t.Fatalf("NO-instance gadget optimum = %d, want 5", got)
	}
}

func TestTheorem4GadgetAgreesWithPartitionDecider(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(3)
		var p *partition.Instance
		if trial%2 == 0 {
			p = partition.RandomYes(rng, n, 6)
		} else {
			p = partition.RandomNo(rng, n, 6)
		}
		yes, err := p.Decide()
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		inst, err := gen.PartitionGadget(p.Elems, 0.4/float64(len(p.Elems)))
		if err != nil {
			t.Fatalf("PartitionGadget: %v", err)
		}
		got := solveAndExecute(t, inst)
		want := 5
		if yes {
			want = 4
		}
		if got != want {
			t.Fatalf("trial %d: gadget optimum %d, want %d (partition YES=%v, elems=%v)", trial, got, want, yes, p.Elems)
		}
	}
}

func TestOptResAssignment2RejectsUnsupportedInstances(t *testing.T) {
	sized := core.NewSizedInstance([]core.Job{{Req: 0.5, Size: 2}})
	if _, err := New().Schedule(context.Background(), sized); err == nil {
		t.Fatalf("expected error for non-unit sizes")
	}
	big := make([][]float64, MaxProcessors+1)
	for i := range big {
		big[i] = []float64{0.5}
	}
	if _, err := New().Schedule(context.Background(), core.NewInstance(big...)); err == nil {
		t.Fatalf("expected error for too many processors")
	}
}

func TestOptResAssignment2ConfigLimit(t *testing.T) {
	s := &Scheduler{MaxConfigs: 1}
	inst := gen.Random(rand.New(rand.NewSource(1)), 3, 3, 0.3, 1.0)
	if _, err := s.Schedule(context.Background(), inst); err == nil {
		t.Fatalf("expected configuration-limit error")
	}
}

func TestOptResAssignment2EmptyInstance(t *testing.T) {
	sched, err := New().Schedule(context.Background(), core.NewInstance(nil, nil))
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if sched.Steps() != 0 {
		t.Fatalf("empty instance should yield an empty schedule")
	}
}

func TestOptResAssignment2Name(t *testing.T) {
	if New().Name() != "opt-res-assignment-2" || !New().IsExact() {
		t.Fatalf("unexpected identity")
	}
}
