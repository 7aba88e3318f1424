package anytime

import (
	"context"
	"testing"

	"crsharing/internal/algo/branchbound"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
)

// TestWarmHintBecomesIncumbent: on an instance whose greedy seed is one step
// off optimal, an exact warm-start hint must win the incumbent race — the
// solver records the accepted seed and returns a schedule at least as good.
func TestWarmHintBecomesIncumbent(t *testing.T) {
	inst := gen.GreedyWorstCase(4, 3, 0.01)
	exact, err := branchbound.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	opt := executed(t, inst, exact).Makespan()

	var ctr progress.Counters
	ctx := progress.WithCounters(context.Background(), &ctr)
	ctx = progress.WithWarmStart(ctx, exact)
	sched, err := New().Schedule(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	res := executed(t, inst, sched)
	if seed := ctr.WarmSeed.Load(); seed != int64(opt) {
		t.Fatalf("warm seed %d, want the hint's makespan %d", seed, opt)
	}
	if res.Makespan() > opt {
		t.Fatalf("anytime makespan %d worse than the accepted hint %d", res.Makespan(), opt)
	}
}

// TestWarmHintInfeasibleIgnored: a hint that cannot finish the instance is
// discarded without recording a seed, and the solver's floor (never worse
// than greedy) still holds.
func TestWarmHintInfeasibleIgnored(t *testing.T) {
	inst := gen.GreedyWorstCase(3, 2, 0.01)
	bogus := core.NewSchedule(1, inst.NumProcessors()) // one empty step

	var ctr progress.Counters
	ctx := progress.WithCounters(context.Background(), &ctr)
	ctx = progress.WithWarmStart(ctx, bogus)
	sched, err := New().Schedule(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	executed(t, inst, sched)
	if seed := ctr.WarmSeed.Load(); seed != 0 {
		t.Fatalf("infeasible hint recorded warm seed %d", seed)
	}
}
