package assign

import (
	"context"
	"math/rand"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/solver"
)

func TestTaskHelpers(t *testing.T) {
	task := NewUnitTask("t", 0.5, 0.25)
	if task.Work() != 0.75 {
		t.Fatalf("work = %v, want 0.75", task.Work())
	}
	if task.Steps() != 2 {
		t.Fatalf("steps = %d, want 2", task.Steps())
	}
}

func TestRoundRobinAssignment(t *testing.T) {
	tasks := []Task{NewUnitTask("a", 0.5), NewUnitTask("b", 0.6), NewUnitTask("c", 0.7)}
	a := RoundRobin{}.Assign(tasks, 2)
	if a.Proc[0] != 0 || a.Proc[1] != 1 || a.Proc[2] != 0 {
		t.Fatalf("round robin placement wrong: %v", a.Proc)
	}
	inst, err := a.Instance(tasks)
	if err != nil {
		t.Fatalf("Instance: %v", err)
	}
	if inst.NumJobs(0) != 2 || inst.NumJobs(1) != 1 {
		t.Fatalf("materialised instance wrong: %v", inst)
	}
	loads := a.Loads(tasks)
	if loads[0] != 1.2 || loads[1] != 0.6 {
		t.Fatalf("loads wrong: %v", loads)
	}
}

func TestLPTBalancesWork(t *testing.T) {
	tasks := []Task{
		NewUnitTask("big", 0.9, 0.9, 0.9),
		NewUnitTask("mid", 0.8, 0.8),
		NewUnitTask("small1", 0.5),
		NewUnitTask("small2", 0.4),
	}
	a := LPT{}.Assign(tasks, 2)
	loads := a.Loads(tasks)
	// LPT puts the big task alone-ish: the max load must be below the total
	// minus the smallest task (i.e. it actually spreads the work).
	if loads[0] == 0 || loads[1] == 0 {
		t.Fatalf("LPT must use both processors: %v", loads)
	}
	diff := loads[0] - loads[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 1.0 {
		t.Fatalf("LPT load imbalance too large: %v", loads)
	}
}

func TestLeastJobsBalancesCounts(t *testing.T) {
	tasks := []Task{
		NewUnitTask("a", 0.1, 0.1, 0.1, 0.1),
		NewUnitTask("b", 0.9),
		NewUnitTask("c", 0.9),
	}
	a := LeastJobs{}.Assign(tasks, 2)
	inst, err := a.Instance(tasks)
	if err != nil {
		t.Fatalf("Instance: %v", err)
	}
	// Task "a" (4 jobs) goes to processor 1; "b" and "c" both end up on
	// processor 2, keeping the chain lengths 4 vs 2 instead of 5 vs 1.
	if inst.MaxJobs() != 4 {
		t.Fatalf("expected max chain of 4 jobs, got %d", inst.MaxJobs())
	}
}

func TestRandomAssignmentIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tasks := RandomTasks(rng, 10, 1, 4, 0.1, 0.9)
	a := Random{Rng: rng}.Assign(tasks, 3)
	inst, err := a.Instance(tasks)
	if err != nil {
		t.Fatalf("Instance: %v", err)
	}
	if inst.NumProcessors() != 3 || inst.TotalJobs() == 0 {
		t.Fatalf("materialised instance malformed")
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAssignmentErrors(t *testing.T) {
	tasks := []Task{NewUnitTask("a", 0.5)}
	bad := Assignment{Proc: []int{5}, M: 2}
	if _, err := bad.Instance(tasks); err == nil {
		t.Fatalf("out-of-range processor must error")
	}
	mismatch := Assignment{Proc: []int{}, M: 2}
	if _, err := mismatch.Instance(tasks); err == nil {
		t.Fatalf("length mismatch must error")
	}
}

func TestPlacementPlusResourceScheduling(t *testing.T) {
	// End-to-end: place random tasks with each policy, schedule the resource
	// with GreedyBalance, and confirm every makespan respects the lower
	// bound and that LPT never loses to round robin by more than the chain
	// imbalance it avoids.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		tasks := RandomTasks(rng, 8, 1, 5, 0.1, 1.0)
		m := 3
		for _, p := range Policies() {
			a := p.Assign(tasks, m)
			inst, err := a.Instance(tasks)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			ev, err := solver.Evaluate(context.Background(), solver.Adapt(greedybalance.New()), inst)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if ev.Makespan < core.LowerBounds(inst).Best() {
				t.Fatalf("%s: makespan below lower bound", p.Name())
			}
		}
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range Policies() {
		names[p.Name()] = true
	}
	if !names["assign-round-robin"] || !names["assign-lpt"] || !names["assign-least-jobs"] {
		t.Fatalf("unexpected policy names: %v", names)
	}
	if (Random{}).Name() != "assign-random" {
		t.Fatalf("random policy name wrong")
	}
}
