package solver_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/optresm"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/solver"
)

// evaluate runs k through Adapt and Evaluate under a background context.
func evaluate(k solver.Kernel, inst *core.Instance) (*solver.Evaluation, error) {
	return solver.Evaluate(context.Background(), solver.Adapt(k), inst)
}

func TestEvaluateReportsRatioAndProperties(t *testing.T) {
	inst := gen.Figure3(20)
	ev, err := evaluate(greedybalance.New(), inst)
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

func TestEvaluatePropagatesKernelErrors(t *testing.T) {
	// The 2-processor DP rejects 3-processor instances; Evaluate must wrap
	// and return that error.
	inst := core.NewInstance([]float64{0.1}, []float64{0.2}, []float64{0.3})
	_, err := evaluate(optres2.New(), inst)
	if err == nil {
		t.Fatalf("expected error from the m=2 algorithm on a 3-processor instance")
	}
	if !strings.HasPrefix(err.Error(), "opt-res-assignment: ") {
		t.Fatalf("error %q does not name the kernel", err)
	}
}

func TestEvaluateDetectsUnfinishedSchedules(t *testing.T) {
	if _, err := evaluate(truncatingKernel{}, gen.Figure3(4)); err == nil || !strings.Contains(err.Error(), "finish") {
		t.Fatalf("expected unfinished-schedule error, got %v", err)
	}
}

func TestEvaluateDetectsInfeasibleSchedules(t *testing.T) {
	if _, err := evaluate(overusingKernel{}, gen.Figure3(4)); err == nil || !strings.Contains(err.Error(), "invalid schedule") {
		t.Fatalf("expected infeasibility error, got %v", err)
	}
}

// truncatingKernel returns an empty schedule regardless of the instance.
type truncatingKernel struct{}

func (truncatingKernel) Name() string { return "truncating" }
func (truncatingKernel) Schedule(context.Context, *core.Instance) (*core.Schedule, error) {
	return &core.Schedule{}, nil
}

// overusingKernel assigns the full resource to every processor.
type overusingKernel struct{}

func (overusingKernel) Name() string { return "overusing" }
func (overusingKernel) Schedule(_ context.Context, inst *core.Instance) (*core.Schedule, error) {
	s := core.NewSchedule(1, inst.NumProcessors())
	for i := 0; i < inst.NumProcessors(); i++ {
		s.Alloc[0][i] = 1
	}
	return s, nil
}

func TestAllKernelsAgreeWithExactOnFigure2(t *testing.T) {
	// Exact algorithms must return 4 on the Figure 2 instance; approximation
	// algorithms must stay within their proven factors.
	inst := gen.Figure2()
	exact, err := evaluate(optresm.New(), inst)
	if err != nil {
		t.Fatalf("optresm: %v", err)
	}
	if exact.Makespan != 4 {
		t.Fatalf("exact makespan %d, want 4", exact.Makespan)
	}
	rr, err := evaluate(roundrobin.New(), inst)
	if err != nil {
		t.Fatalf("roundrobin: %v", err)
	}
	if rr.Makespan > 2*exact.Makespan {
		t.Fatalf("RoundRobin %d exceeds 2·OPT %d", rr.Makespan, 2*exact.Makespan)
	}
	gb, err := evaluate(greedybalance.New(), inst)
	if err != nil {
		t.Fatalf("greedybalance: %v", err)
	}
	m := float64(inst.NumProcessors())
	if float64(gb.Makespan) > (2-1/m)*float64(exact.Makespan)+1e-9 {
		t.Fatalf("GreedyBalance %d exceeds (2-1/m)·OPT", gb.Makespan)
	}
}

// TestEveryNameFinishesNearZeroLastJobs solves instances whose last job on
// a processor has a requirement of at most numeric.Eps. Such a job
// finishes in a step that may assign no resource, and every registered name
// must keep that step and answer the oracle's optimum.
func TestEveryNameFinishesNearZeroLastJobs(t *testing.T) {
	cases := []struct {
		inst *core.Instance
		want int
	}{
		{core.NewInstance([]float64{0.5, 0}, []float64{0.5}), 2},
		{core.NewInstance([]float64{0.5, 5e-10}, []float64{0.5714285708571429, 0.05}), 3},
		// p1's last job needs no share, so a share reserved for it must not
		// come out of p2's requirement-1 job in the same step.
		{core.NewInstance([]float64{0.375, 1e-9}, []float64{0.24999999100000103, 1}), 2},
	}
	reg := solver.Default()
	for ci, c := range cases {
		if opt, err := bruteforce.Makespan(c.inst); err != nil || opt != c.want {
			t.Fatalf("case %d: oracle %d (err %v), want %d", ci, opt, err, c.want)
		}
		for _, name := range reg.Names() {
			s, err := reg.New(name)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := solver.Evaluate(context.Background(), s, c.inst)
			if err != nil {
				t.Errorf("case %d: %s: %v", ci, name, err)
				continue
			}
			if ev.Makespan != c.want {
				t.Errorf("case %d: %s makespan %d, oracle %d", ci, name, ev.Makespan, c.want)
			}
		}
	}
}

// TestEveryNameReturnsCanceled pins Adapt's one rule: under a context that
// is already cancelled, every registered name returns context.Canceled,
// whether or not its kernel polls the context.
func TestEveryNameReturnsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inst := gen.Figure3(4)
	reg := solver.Default()
	for _, name := range reg.Names() {
		s, err := reg.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Solve(ctx, inst); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", name, err)
		}
	}
}
