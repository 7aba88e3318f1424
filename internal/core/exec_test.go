package core

import (
	"math"
	"testing"

	"crsharing/internal/numeric"
)

func TestExecuteSingleJobFullSpeed(t *testing.T) {
	inst := NewInstance([]float64{0.5})
	s := NewSchedule(1, 1)
	s.Alloc[0][0] = 0.5
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() {
		t.Fatalf("job should finish in one step at full requirement")
	}
	if got := res.Makespan(); got != 1 {
		t.Fatalf("makespan = %d, want 1", got)
	}
	if got := res.CompletionStep(0, 0); got != 0 {
		t.Fatalf("completion step = %d, want 0", got)
	}
}

func TestExecuteHalfSpeedTakesTwoSteps(t *testing.T) {
	inst := NewInstance([]float64{0.8})
	s := NewSchedule(2, 1)
	s.Alloc[0][0] = 0.4
	s.Alloc[1][0] = 0.4
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() || res.Makespan() != 2 {
		t.Fatalf("finished=%v makespan=%d, want finished in 2 steps", res.Finished(), res.Makespan())
	}
}

func TestExecuteOverProvisioningDoesNotSpeedUp(t *testing.T) {
	// Granting more than the requirement must not process more than one
	// volume unit per step.
	inst := NewInstance([]float64{0.3, 0.3})
	s := NewSchedule(1, 1)
	s.Alloc[0][0] = 1.0
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Finished() {
		t.Fatalf("second job must not be processed in the same step")
	}
	if got := res.CompletionStep(0, 0); got != 0 {
		t.Fatalf("first job completion = %d, want 0", got)
	}
	if want := 1.0 - 0.3; math.Abs(res.Wasted()-want) > 1e-9 {
		t.Fatalf("wasted = %v, want %v", res.Wasted(), want)
	}
}

func TestExecuteNoSpillIntoNextJob(t *testing.T) {
	// A processor processes at most one job per time step even if the share
	// would suffice for both.
	inst := NewInstance([]float64{0.1, 0.1})
	s := NewSchedule(2, 1)
	s.Alloc[0][0] = 0.5
	s.Alloc[1][0] = 0.1
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() || res.Makespan() != 2 {
		t.Fatalf("finished=%v makespan=%d, want 2 steps", res.Finished(), res.Makespan())
	}
	if res.CompletionStep(0, 1) != 1 {
		t.Fatalf("second job must complete in step 2")
	}
}

func TestExecuteZeroRequirementJobTakesOneStep(t *testing.T) {
	inst := NewInstance([]float64{0, 0.5})
	s := NewSchedule(2, 1)
	s.Alloc[1][0] = 0.5
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() || res.Makespan() != 2 {
		t.Fatalf("finished=%v makespan=%d, want 2", res.Finished(), res.Makespan())
	}
	if res.CompletionStep(0, 0) != 0 {
		t.Fatalf("zero-requirement job should finish in step 1 without resource")
	}
}

func TestExecuteOverusedResourceRejected(t *testing.T) {
	inst := NewInstance([]float64{0.5}, []float64{0.7})
	s := NewSchedule(1, 2)
	s.Alloc[0][0] = 0.6
	s.Alloc[0][1] = 0.6
	if _, err := Execute(inst, s); err == nil {
		t.Fatalf("expected feasibility error for Σ R_i > 1")
	}
}

func TestExecuteNegativeShareRejected(t *testing.T) {
	inst := NewInstance([]float64{0.5})
	s := NewSchedule(1, 1)
	s.Alloc[0][0] = -0.1
	if _, err := Execute(inst, s); err == nil {
		t.Fatalf("expected feasibility error for negative share")
	}
}

func TestExecuteArbitrarySizes(t *testing.T) {
	// A job of size 3 with requirement 0.2 needs 0.6 resource in total and at
	// least 3 steps (speed cap).
	inst := NewSizedInstance([]Job{{Req: 0.2, Size: 3}})
	s := NewSchedule(3, 1)
	for t0 := 0; t0 < 3; t0++ {
		s.Alloc[t0][0] = 0.2
	}
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() || res.Makespan() != 3 {
		t.Fatalf("finished=%v makespan=%d, want 3", res.Finished(), res.Makespan())
	}

	// Granting the full resource does not beat the per-job speed cap.
	s2 := NewSchedule(2, 1)
	s2.Alloc[0][0] = 1
	s2.Alloc[1][0] = 1
	res2, err := Execute(inst, s2)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res2.Finished() {
		t.Fatalf("size-3 job cannot finish in 2 steps regardless of share")
	}
}

func TestExecuteUnfinishedSchedule(t *testing.T) {
	inst := NewInstance([]float64{0.5, 0.5})
	s := NewSchedule(1, 1)
	s.Alloc[0][0] = 0.5
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Finished() {
		t.Fatalf("schedule with one step cannot finish two jobs")
	}
	if res.CompletionStep(0, 1) != -1 {
		t.Fatalf("unfinished job must report completion -1")
	}
}

func TestExecuteTrajectoryAccessors(t *testing.T) {
	inst := NewInstance([]float64{0.6, 0.4}, []float64{0.5})
	s := NewSchedule(3, 2)
	s.Alloc[0][0] = 0.6
	s.Alloc[0][1] = 0.4
	s.Alloc[1][0] = 0.4
	s.Alloc[1][1] = 0.1
	s.Alloc[2][1] = 0.0
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got := res.RemainingJobs(0, 0); got != 2 {
		t.Fatalf("n_1(1) = %d, want 2", got)
	}
	if got := res.RemainingJobs(1, 0); got != 1 {
		t.Fatalf("n_1(2) = %d, want 1", got)
	}
	if j, ok := res.ActiveJob(1, 0); !ok || j != 1 {
		t.Fatalf("active job of p1 at step 2 = (%d,%v), want (1,true)", j, ok)
	}
	if got := res.RemainingWork(1, 1); !numeric.Eq(got, 0.1) {
		t.Fatalf("remaining work of p2 at step 2 = %v, want 0.1", got)
	}
	if !res.FinishedJobDuring(0, 0) {
		t.Fatalf("p1 finishes its first job during step 1")
	}
	if !res.FinishedJobDuring(1, 1) {
		t.Fatalf("p2 finishes its job during step 2 (0.4 + 0.1 covers the requirement of 0.5)")
	}
	ids := res.ActiveJobs(0)
	if len(ids) != 2 {
		t.Fatalf("two jobs active at step 1, got %d", len(ids))
	}
}

func TestExecuteActiveJobsAndCompletionOrder(t *testing.T) {
	inst := NewInstance([]float64{0.5, 0.5}, []float64{1.0})
	s := NewSchedule(3, 2)
	s.Alloc[0][0] = 0.5
	s.Alloc[0][1] = 0.5
	s.Alloc[1][0] = 0.5
	s.Alloc[1][1] = 0.5
	s.Alloc[2][1] = 1.0 // wasted: p2 has nothing left after... actually p2 finishes at step 3
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	order := res.CompletionOrder()
	if len(order) == 0 {
		t.Fatalf("expected completed jobs in order")
	}
	first := order[0]
	if first.Proc != 0 || first.Pos != 0 {
		t.Fatalf("first completed job = %v, want (1,1)", first)
	}
}

func TestMustMakespanPanicsOnUnfinished(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for unfinished schedule")
		}
	}()
	inst := NewInstance([]float64{1, 1})
	MustMakespan(inst, NewSchedule(1, 1))
}

func TestScheduleStringAndShare(t *testing.T) {
	s := NewSchedule(1, 2)
	s.Alloc[0][0] = 0.25
	if s.Share(0, 0) != 0.25 || s.Share(5, 1) != 0 || s.Share(0, 7) != 0 {
		t.Fatalf("Share out-of-range accesses must return 0")
	}
	if s.String() == "" {
		t.Fatalf("String must render something")
	}
}
