package greedybalance

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

func mustRun(t *testing.T, s *Scheduler, inst *core.Instance) *core.Result {
	t.Helper()
	sched, err := s.Schedule(context.Background(), inst)
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
	return res
}

func TestGreedyBalanceProducesBalancedSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(4)
		inst := gen.RandomUneven(rng, m, 1, 6, 0.05, 1.0)
		res := mustRun(t, New(), inst)
		p := core.CheckProperties(res)
		if !p.NonWasting {
			t.Fatalf("trial %d: GreedyBalance schedule must be non-wasting\n%v", trial, inst)
		}
		if !p.Progressive {
			t.Fatalf("trial %d: GreedyBalance schedule must be progressive\n%v", trial, inst)
		}
		if !p.Balanced {
			t.Fatalf("trial %d: GreedyBalance schedule must be balanced\n%v", trial, inst)
		}
	}
}

func TestGreedyBalanceWithinTheoremSevenBound(t *testing.T) {
	// Theorem 7: every non-wasting, progressive, balanced schedule is a
	// (2 − 1/m)-approximation. Verify against the brute-force optimum on
	// small random instances.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(2)
		inst := gen.Random(rng, m, 1+rng.Intn(4), 0.05, 1.0)
		res := mustRun(t, New(), inst)
		opt, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		bound := (2.0 - 1.0/float64(m)) * float64(opt)
		if float64(res.Makespan()) > bound+1e-9 {
			t.Fatalf("trial %d: GreedyBalance %d exceeds (2-1/m)·OPT = %.3f (OPT=%d)\n%v",
				trial, res.Makespan(), bound, opt, inst)
		}
	}
}

func TestGreedyBalanceFigure5Block(t *testing.T) {
	// On the Theorem 8 block construction, GreedyBalance needs 2m−1 steps per
	// block.
	for _, m := range []int{2, 3, 4} {
		eps := 1.0 / float64(10*m*(m+1))
		blocks := 4
		inst := gen.GreedyWorstCase(m, blocks, eps)
		if inst.NumJobs(0) != blocks*m {
			t.Fatalf("m=%d: construction truncated to %d jobs, want %d", m, inst.NumJobs(0), blocks*m)
		}
		res := mustRun(t, New(), inst)
		want := blocks * (2*m - 1)
		if res.Makespan() != want {
			t.Fatalf("m=%d: GreedyBalance makespan = %d, want %d (2m-1 per block)", m, res.Makespan(), want)
		}
	}
}

func TestGreedyBalanceWorstCaseRatioApproachesBound(t *testing.T) {
	// The ratio GreedyBalance/OPT on the block construction approaches
	// 2 − 1/m as the number of blocks grows. The work lower bound is within
	// O(m) of the optimum, so comparing against it suffices for large
	// instances.
	for _, m := range []int{2, 3} {
		eps := 1.0 / float64(20*m*(m+1))
		blocks := gen.MaxBlocks(m, eps)
		if blocks > 12 {
			blocks = 12
		}
		inst := gen.GreedyWorstCase(m, blocks, eps)
		res := mustRun(t, New(), inst)
		lb := core.LowerBounds(inst).Best()
		ratio := float64(res.Makespan()) / float64(lb)
		want := 2 - 1/float64(m)
		if ratio < want-0.25 {
			t.Fatalf("m=%d: ratio %.3f is far below the tight bound %.3f", m, ratio, want)
		}
		if ratio > want+0.35 {
			t.Fatalf("m=%d: ratio %.3f exceeds the tight bound %.3f by too much (lower bound too weak?)", m, ratio, want)
		}
	}
}

func TestGreedyBalanceSingleProcessor(t *testing.T) {
	inst := core.NewInstance([]float64{0.3, 0.8, 0.1})
	res := mustRun(t, New(), inst)
	if res.Makespan() != 3 {
		t.Fatalf("single processor: makespan = %d, want 3", res.Makespan())
	}
}

func TestGreedyBalanceTieBreakVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := gen.Random(rng, 3, 4, 0.05, 1.0)
	for _, s := range []*Scheduler{New(), NewWithTie(SmallerRemaining), NewWithTie(ProcessorIndex)} {
		res := mustRun(t, s, inst)
		if !core.IsBalanced(res) {
			t.Fatalf("%s: schedule must be balanced", s.Name())
		}
	}
}

func TestGreedyUnbalancedVariantViolatesBalanceSomewhere(t *testing.T) {
	// The ablation variant that ignores job counts produces unbalanced
	// schedules on instances where the short processor's jobs have larger
	// requirements.
	inst := core.NewInstance(
		[]float64{0.9},
		[]float64{0.5, 0.5, 0.5},
	)
	s := NewUnbalanced(LargerRemaining)
	sched, err := s.Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if core.IsBalanced(res) {
		t.Fatalf("unbalanced variant should violate Definition 5 on this instance")
	}
}

func TestGreedyBalanceArbitrarySizes(t *testing.T) {
	// The Section 9 extension: arbitrary sizes are accepted and the schedule
	// finishes everything within the (work + chain) horizon.
	rng := rand.New(rand.NewSource(9))
	inst := gen.RandomSized(rng, 3, 4, 0.1, 1.0, 3.0)
	res := mustRun(t, New(), inst)
	lb := core.LowerBounds(inst)
	if res.Makespan() < lb.Best() {
		t.Fatalf("makespan %d below the lower bound %d: execution or bound is wrong", res.Makespan(), lb.Best())
	}
}

func TestGreedyBalanceNames(t *testing.T) {
	cases := map[string]*Scheduler{
		"greedy-balance":          New(),
		"greedy-balance-small":    NewWithTie(SmallerRemaining),
		"greedy-balance-index":    NewWithTie(ProcessorIndex),
		"greedy-unbalanced-large": NewUnbalanced(LargerRemaining),
		"greedy-unbalanced-small": NewUnbalanced(SmallerRemaining),
		"greedy-unbalanced-index": NewUnbalanced(ProcessorIndex),
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Fatalf("Name() = %q, want %q", got, want)
		}
	}
}

func TestGreedyBalanceStepPriorityOrdersByRemainingJobs(t *testing.T) {
	inst := core.NewInstance(
		[]float64{0.5},
		[]float64{0.5, 0.5},
		[]float64{0.5, 0.5, 0.5},
	)
	b := core.NewBuilder(inst)
	order := New().StepPriority(b)
	want := []int{2, 1, 0}
	if len(order) != 3 {
		t.Fatalf("expected 3 active processors, got %d", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}

func TestGreedyBalanceRatioNeverBelowOne(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		inst := gen.RandomBimodal(rng, 2+rng.Intn(3), 1+rng.Intn(5), 0.4)
		res := mustRun(t, New(), inst)
		lb := core.LowerBounds(inst).Best()
		if res.Makespan() < lb {
			t.Fatalf("makespan %d below lower bound %d: impossible", res.Makespan(), lb)
		}
		if math.IsNaN(core.ApproxRatio(inst, res.Makespan())) {
			t.Fatalf("ratio must be a number")
		}
	}
}
