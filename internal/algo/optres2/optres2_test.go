package optres2

import (
	"context"
	"math/rand"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

func solveAndExecute(t *testing.T, s *Scheduler, inst *core.Instance) int {
	t.Helper()
	return solveAndExecuteResult(t, s, inst).Makespan()
}

func solveAndExecuteResult(t *testing.T, s *Scheduler, inst *core.Instance) *core.Result {
	t.Helper()
	sched, err := s.Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("%s: Schedule: %v", variant(s), err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		t.Fatalf("%s: Execute: %v", variant(s), err)
	}
	if !res.Finished() {
		t.Fatalf("%s: schedule does not finish all jobs", variant(s))
	}
	return res
}

// variant names the dynamic program's variant in failure messages.
func variant(s *Scheduler) string {
	if s.UsePriorityQueue {
		return "priority-queue variant"
	}
	return "dense variant"
}

func TestOptResAssignmentMatchesBruteForceOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 80; trial++ {
		inst := gen.RandomUneven(rng, 2, 1, 5, 0.05, 1.0)
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		got := solveAndExecute(t, New(), inst)
		if got != want {
			t.Fatalf("trial %d: DP makespan %d != brute force %d\n%v", trial, got, want, inst)
		}
		gotPQ := solveAndExecute(t, NewPQ(), inst)
		if gotPQ != want {
			t.Fatalf("trial %d: PQ variant makespan %d != brute force %d\n%v", trial, gotPQ, want, inst)
		}
	}
}

func TestOptResAssignmentFigure3Optimum(t *testing.T) {
	// The optimal makespan of the Figure 3 family is n+1 (Theorem 3's lower
	// bound construction).
	for _, n := range []int{4, 10, 40, 120} {
		inst := gen.Figure3(n)
		got := solveAndExecute(t, New(), inst)
		if got != n+1 {
			t.Fatalf("n=%d: optimal makespan = %d, want %d", n, got, n+1)
		}
	}
}

func TestOptResAssignmentMakespanOnlyAgreesWithSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		inst := gen.Random(rng, 2, 1+rng.Intn(8), 0.05, 1.0)
		viaSchedule := solveAndExecute(t, New(), inst)
		direct, err := New().Makespan(inst)
		if err != nil {
			t.Fatalf("Makespan: %v", err)
		}
		if direct != viaSchedule {
			t.Fatalf("trial %d: Makespan()=%d but executed schedule gives %d", trial, direct, viaSchedule)
		}
	}
}

func TestOptResAssignmentSchedulesAreFeasibleAndTight(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		inst := gen.RandomBimodal(rng, 2, 1+rng.Intn(6), 0.5)
		sched, err := New().Schedule(context.Background(), inst)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		if err := sched.ValidateFeasible(); err != nil {
			t.Fatalf("trial %d: infeasible schedule: %v", trial, err)
		}
		res, err := core.Execute(inst, sched)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !res.Finished() {
			t.Fatalf("trial %d: unfinished schedule", trial)
		}
		if lb := core.LowerBounds(inst).Best(); res.Makespan() < lb {
			t.Fatalf("trial %d: makespan %d below lower bound %d", trial, res.Makespan(), lb)
		}
	}
}

func TestOptResAssignmentRejectsWrongShape(t *testing.T) {
	three := core.NewInstance([]float64{0.5}, []float64{0.5}, []float64{0.5})
	if _, err := New().Schedule(context.Background(), three); err == nil {
		t.Fatalf("expected error for three processors")
	}
	sized := core.NewSizedInstance([]core.Job{{Req: 0.5, Size: 2}}, []core.Job{{Req: 0.5, Size: 1}})
	if _, err := New().Schedule(context.Background(), sized); err == nil {
		t.Fatalf("expected error for non-unit sizes")
	}
}

func TestOptResAssignmentEmptyAndDegenerate(t *testing.T) {
	empty := core.NewInstance(nil, nil)
	got := solveAndExecuteAllowEmpty(t, New(), empty)
	if got != 0 {
		t.Fatalf("empty instance: makespan %d, want 0", got)
	}
	oneSided := core.NewInstance([]float64{0.4, 0.6, 0.2}, nil)
	if got := solveAndExecute(t, New(), oneSided); got != 3 {
		t.Fatalf("one-sided instance: makespan %d, want 3", got)
	}
	if got := solveAndExecute(t, NewPQ(), oneSided); got != 3 {
		t.Fatalf("one-sided instance (PQ): makespan %d, want 3", got)
	}
}

func solveAndExecuteAllowEmpty(t *testing.T, s *Scheduler, inst *core.Instance) int {
	t.Helper()
	sched, err := s.Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res.Makespan()
}

func TestOptResAssignmentCarryExample(t *testing.T) {
	// The hand example from the brute force tests: two processors with two
	// 0.8-requirement jobs each; optimum 4 via carrying.
	inst := core.NewInstance([]float64{0.8, 0.8}, []float64{0.8, 0.8})
	if got := solveAndExecute(t, New(), inst); got != 4 {
		t.Fatalf("makespan = %d, want 4", got)
	}
}

func TestOptResAssignmentZeroRequirements(t *testing.T) {
	inst := core.NewInstance([]float64{0, 0, 0}, []float64{1, 1})
	// Zero-requirement jobs take one step each but consume nothing, so both
	// processors run in parallel: makespan 3.
	if got := solveAndExecute(t, New(), inst); got != 3 {
		t.Fatalf("makespan = %d, want 3", got)
	}
}

// TestNearZeroLastJobs solves instances whose last job on a processor has a
// requirement of at most numeric.Eps with both variants: each must answer
// the oracle's optimum and waste nothing. The priority-queue variant once
// wasted 1e-9 on the third instance.
func TestNearZeroLastJobs(t *testing.T) {
	cases := []struct {
		inst *core.Instance
		want int
	}{
		{core.NewInstance([]float64{0.5, 0}, []float64{0.5}), 2},
		{core.NewInstance([]float64{0.5, 5e-10}, []float64{0.5714285708571429, 0.05}), 3},
		{core.NewInstance([]float64{0.375, 1e-9}, []float64{0.24999999100000103, 1}), 2},
	}
	for ci, c := range cases {
		if opt, err := bruteforce.Makespan(c.inst); err != nil || opt != c.want {
			t.Fatalf("case %d: oracle %d (err %v), want %d", ci, opt, err, c.want)
		}
		for _, s := range []*Scheduler{New(), NewPQ()} {
			res := solveAndExecuteResult(t, s, c.inst)
			if res.Makespan() != c.want {
				t.Errorf("case %d: %s makespan %d, oracle %d", ci, variant(s), res.Makespan(), c.want)
			}
			if res.Wasted() != 0 {
				t.Errorf("case %d: %s wastes %g", ci, variant(s), res.Wasted())
			}
		}
	}
}

func TestOptResAssignmentNames(t *testing.T) {
	if New().Name() != "opt-res-assignment" || NewPQ().Name() != "opt-res-assignment" {
		t.Fatalf("unexpected names %q, %q", New().Name(), NewPQ().Name())
	}
	if !New().IsExact() {
		t.Fatalf("scheduler must report itself exact")
	}
}
