package algo_test

import (
	"strings"
	"testing"

	"crsharing/internal/algo"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/optresm"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

func TestEvaluateReportsRatioAndProperties(t *testing.T) {
	inst := gen.Figure3(20)
	ev, err := algo.Evaluate(greedybalance.New(), inst)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.Algorithm != "greedy-balance" {
		t.Fatalf("algorithm name %q", ev.Algorithm)
	}
	if ev.Makespan < ev.LowerBound {
		t.Fatalf("makespan %d below lower bound %d", ev.Makespan, ev.LowerBound)
	}
	if ev.Ratio < 1 {
		t.Fatalf("ratio %v below 1", ev.Ratio)
	}
	if !ev.Properties.NonWasting || !ev.Properties.Balanced {
		t.Fatalf("greedy-balance evaluation should report non-wasting, balanced: %v", ev.Properties)
	}
}

func TestEvaluatePropagatesSchedulerErrors(t *testing.T) {
	// The 2-processor DP rejects 3-processor instances; Evaluate must wrap
	// and return that error.
	inst := core.NewInstance([]float64{0.1}, []float64{0.2}, []float64{0.3})
	if _, err := algo.Evaluate(optres2.New(), inst); err == nil {
		t.Fatalf("expected error from the m=2 algorithm on a 3-processor instance")
	}
}

func TestEvaluateDetectsUnfinishedSchedules(t *testing.T) {
	if _, err := algo.Evaluate(truncatingScheduler{}, gen.Figure3(4)); err == nil || !strings.Contains(err.Error(), "finish") {
		t.Fatalf("expected unfinished-schedule error, got %v", err)
	}
}

func TestEvaluateDetectsInfeasibleSchedules(t *testing.T) {
	if _, err := algo.Evaluate(overusingScheduler{}, gen.Figure3(4)); err == nil {
		t.Fatalf("expected infeasibility error")
	}
}

// truncatingScheduler returns an empty schedule regardless of the instance.
type truncatingScheduler struct{}

func (truncatingScheduler) Name() string { return "truncating" }
func (truncatingScheduler) Schedule(inst *core.Instance) (*core.Schedule, error) {
	return &core.Schedule{}, nil
}

// overusingScheduler assigns the full resource to every processor.
type overusingScheduler struct{}

func (overusingScheduler) Name() string { return "overusing" }
func (overusingScheduler) Schedule(inst *core.Instance) (*core.Schedule, error) {
	s := core.NewSchedule(1, inst.NumProcessors())
	for i := 0; i < inst.NumProcessors(); i++ {
		s.Alloc[0][i] = 1
	}
	return s, nil
}

func TestAllSchedulersAgreeWithExactOnFigure2(t *testing.T) {
	// Exact algorithms must return 4 on the Figure 2 instance; approximation
	// algorithms must stay within their proven factors.
	inst := gen.Figure2()
	exact, err := algo.Evaluate(optresm.New(), inst)
	if err != nil {
		t.Fatalf("optresm: %v", err)
	}
	if exact.Makespan != 4 {
		t.Fatalf("exact makespan %d, want 4", exact.Makespan)
	}
	rr, err := algo.Evaluate(roundrobin.New(), inst)
	if err != nil {
		t.Fatalf("roundrobin: %v", err)
	}
	if rr.Makespan > 2*exact.Makespan {
		t.Fatalf("RoundRobin %d exceeds 2·OPT %d", rr.Makespan, 2*exact.Makespan)
	}
	gb, err := algo.Evaluate(greedybalance.New(), inst)
	if err != nil {
		t.Fatalf("greedybalance: %v", err)
	}
	m := float64(inst.NumProcessors())
	if float64(gb.Makespan) > (2-1/m)*float64(exact.Makespan)+1e-9 {
		t.Fatalf("GreedyBalance %d exceeds (2-1/m)·OPT", gb.Makespan)
	}
}
