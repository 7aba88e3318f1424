package chunked

import (
	"context"
	"math/rand"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

func makespan(t *testing.T, s *Scheduler, inst *core.Instance) int {
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
		t.Fatalf("chunked schedule does not finish all jobs")
	}
	return res.Makespan()
}

func TestFullWindowEqualsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 20; trial++ {
		inst := gen.RandomUneven(rng, 2+rng.Intn(2), 1, 4, 0.05, 1.0)
		opt, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		got := makespan(t, New(inst.MaxJobs()), inst)
		if got != opt {
			t.Fatalf("trial %d: window covering everything must be exact: %d vs %d\n%v", trial, got, opt, inst)
		}
	}
}

func TestWideningTheWindowNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 15; trial++ {
		inst := gen.Random(rng, 3, 6, 0.05, 1.0)
		prev := makespan(t, New(1), inst)
		full := makespan(t, New(inst.MaxJobs()), inst)
		if full > prev {
			t.Fatalf("trial %d: full window %d worse than window 1 %d", trial, full, prev)
		}
	}
}

func TestWindowOneIsStillFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 15; trial++ {
		inst := gen.Random(rng, 3, 5, 0.05, 1.0)
		got := makespan(t, New(1), inst)
		opt, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		// Window 1 is a per-column schedule, hence at most a factor 2 away
		// (the RoundRobin argument of Theorem 3 applies verbatim).
		if got > 2*opt {
			t.Fatalf("trial %d: window-1 schedule %d exceeds 2·OPT %d", trial, got, 2*opt)
		}
	}
}

func TestChunkBoundariesVsGreedy(t *testing.T) {
	// On the Figure 3 family a window of 2 already recovers most of the gap
	// between RoundRobin (2n) and the optimum (n+1).
	inst := gen.Figure3(20)
	w2 := makespan(t, New(2), inst)
	if w2 >= 2*20 {
		t.Fatalf("window-2 should beat RoundRobin's 2n on the Figure 3 family, got %d", w2)
	}
	gb, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if opt := core.MustMakespan(inst, gb); w2 < opt {
		// GreedyBalance is optimal on this family (n+1 steps), so no
		// heuristic can beat it.
		t.Fatalf("window-2 makespan %d below the optimum %d: impossible", w2, opt)
	}
}

func TestUnevenAndEmptyProcessors(t *testing.T) {
	inst := core.NewInstance([]float64{0.9, 0.8, 0.7}, []float64{0.5}, nil)
	got := makespan(t, New(2), inst)
	lb := core.LowerBounds(inst).Best()
	if got < lb {
		t.Fatalf("makespan %d below lower bound %d", got, lb)
	}
}

func TestRejectsNonUnitSizes(t *testing.T) {
	inst := core.NewSizedInstance([]core.Job{{Req: 0.5, Size: 2}})
	if _, err := New(2).Schedule(context.Background(), inst); err == nil {
		t.Fatalf("expected error for non-unit sizes")
	}
}

func TestName(t *testing.T) {
	if New(3).Name() != "chunked-exact-w3" {
		t.Fatalf("unexpected name %q", New(3).Name())
	}
	if New(0).Name() != "chunked-exact-w1" {
		t.Fatalf("window below 1 must clamp to 1")
	}
}
