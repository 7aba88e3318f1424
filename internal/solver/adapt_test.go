package solver

import (
	"context"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
)

// nbrBase is the base instance the adaptation tests mutate: three
// processors, mixed requirements.
func nbrBase() *core.Instance {
	return core.NewInstance(
		[]float64{0.9, 0.3, 0.5},
		[]float64{0.2, 0.6},
		[]float64{0.7, 0.1},
	)
}

func solveFor(t *testing.T, inst *core.Instance) *core.Schedule {
	t.Helper()
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("greedy schedule: %v", err)
	}
	return sched
}

func TestAdaptScheduleTrimsWhenStillFinishing(t *testing.T) {
	base := nbrBase()
	sched := solveFor(t, base)
	// Nudge a requirement down: the old schedule over-provisions but still
	// finishes, so the adaptation is a trim to the executed makespan.
	variant := base.Clone()
	variant.Procs[0][0].Req = 0.85
	adapted, ok := AdaptSchedule(variant, sched)
	if !ok {
		t.Fatalf("AdaptSchedule failed on a still-feasible schedule")
	}
	res, err := core.Execute(variant, adapted)
	if err != nil || !res.Finished() {
		t.Fatalf("adapted schedule does not finish: %v", err)
	}
	if adapted.Steps() != res.Makespan() {
		t.Fatalf("adapted schedule has %d steps, executed makespan %d (not trimmed)", adapted.Steps(), res.Makespan())
	}
}

func TestAdaptScheduleExtendsForAddedWork(t *testing.T) {
	base := nbrBase()
	sched := solveFor(t, base)
	variant := base.Clone()
	variant.Procs[2] = append(variant.Procs[2], core.UnitJob(0.5))
	adapted, ok := AdaptSchedule(variant, sched)
	if !ok {
		t.Fatalf("AdaptSchedule failed to extend for an added job")
	}
	res, err := core.Execute(variant, adapted)
	if err != nil || !res.Finished() {
		t.Fatalf("extended schedule does not finish: %v", err)
	}
	if adapted.Steps() < sched.Steps() {
		t.Fatalf("extension shrank the schedule: %d < %d", adapted.Steps(), sched.Steps())
	}
}

func TestAdaptScheduleRejectsUnusable(t *testing.T) {
	base := nbrBase()
	sched := solveFor(t, base)
	if _, ok := AdaptSchedule(nil, sched); ok {
		t.Fatal("adapted a nil instance")
	}
	if _, ok := AdaptSchedule(base, nil); ok {
		t.Fatal("adapted a nil schedule")
	}
	// The rest arrive over HTTP as a request's warm_start.
	overused := sched.Clone()
	overused.Alloc[0][0], overused.Alloc[0][1] = 0.8, 0.8
	for name, bad := range map[string]*core.Schedule{
		"narrower than the instance": core.NewSchedule(sched.Steps(), base.NumProcessors()-1),
		"zero steps":                 core.NewSchedule(0, base.NumProcessors()),
		"step shares sum above 1":    overused,
	} {
		if _, ok := AdaptSchedule(base, bad); ok {
			t.Fatalf("%s: adapted an unusable schedule", name)
		}
	}
	// A wider schedule can legally cover a narrower instance; if the
	// adaptation accepts it, the result must actually finish.
	narrow := core.NewInstance([]float64{0.5})
	if adapted, ok := AdaptSchedule(narrow, sched); ok {
		if res, err := core.Execute(narrow, adapted); err != nil || !res.Finished() {
			t.Fatalf("accepted adaptation does not finish: %v", err)
		}
	}
}
