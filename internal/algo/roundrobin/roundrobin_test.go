package roundrobin

import (
	"context"
	"math/rand"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

func mustMakespan(t *testing.T, s *Scheduler, inst *core.Instance) int {
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
		t.Fatalf("round robin schedule does not finish all jobs")
	}
	return res.Makespan()
}

func TestRoundRobinFigure3WorstCase(t *testing.T) {
	// On the Figure 3 family RoundRobin needs exactly 2n steps (two per
	// phase) while the optimum needs n+1.
	for _, n := range []int{5, 10, 50, 100} {
		inst := gen.Figure3(n)
		got := mustMakespan(t, New(), inst)
		if got != 2*n {
			t.Fatalf("n=%d: RoundRobin makespan = %d, want %d", n, got, 2*n)
		}
		opt := core.MustMakespan(inst, gen.Figure3OptimalSchedule(n))
		if opt != n+1 {
			t.Fatalf("n=%d: Figure 3 optimal schedule finishes in %d steps, want %d", n, opt, n+1)
		}
	}
}

func TestRoundRobinNeverExceedsFactorTwo(t *testing.T) {
	// Theorem 3 upper bound: RoundRobin ≤ 2·OPT. On small random instances
	// the brute-force oracle provides OPT.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(2)
		jobs := 1 + rng.Intn(4)
		inst := gen.Random(rng, m, jobs, 0.05, 1.0)
		rr := mustMakespan(t, New(), inst)
		opt, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		if rr > 2*opt {
			t.Fatalf("trial %d: RoundRobin %d > 2*OPT %d on\n%v", trial, rr, 2*opt, inst)
		}
	}
}

func TestRoundRobinRespectsTheoremThreePhaseBound(t *testing.T) {
	// The proof of Theorem 3 shows each phase takes exactly ⌈Σ_{i∈M_j} r_ij⌉
	// steps; the total must match the sum of phase lengths.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(4)
		jobs := 1 + rng.Intn(5)
		inst := gen.Random(rng, m, jobs, 0.05, 1.0)
		got := mustMakespan(t, New(), inst)
		want := 0
		for _, l := range PhaseLengths(inst) {
			want += l
		}
		if got != want {
			t.Fatalf("trial %d: makespan %d != sum of phase lengths %d", trial, got, want)
		}
	}
}

func TestRoundRobinFillOrders(t *testing.T) {
	// All fill orders must produce feasible finishing schedules; their phase
	// structure (and hence the makespan) is identical for unit size jobs.
	inst := gen.Random(rand.New(rand.NewSource(3)), 3, 4, 0.05, 1.0)
	base := mustMakespan(t, New(), inst)
	for _, order := range []FillOrder{LargestRemainingFirst, SmallestRemainingFirst, ProcessorOrder, EqualSplit} {
		s := &Scheduler{FillOrder: order}
		got := mustMakespan(t, s, inst)
		if got != base {
			t.Fatalf("fill order %d: makespan %d differs from %d", order, got, base)
		}
	}
}

func TestRoundRobinUnevenJobCounts(t *testing.T) {
	inst := core.NewInstance(
		[]float64{0.9, 0.9, 0.9},
		[]float64{0.5},
	)
	got := mustMakespan(t, New(), inst)
	// Phase 1: 0.9+0.5=1.4 → 2 steps; phases 2 and 3: 0.9 → 1 step each.
	if got != 4 {
		t.Fatalf("makespan = %d, want 4", got)
	}
}

func TestRoundRobinArbitrarySizes(t *testing.T) {
	// The RoundRobin phase structure extends to non-unit sizes: each phase
	// simply lasts until all of its jobs are done.
	inst := core.NewSizedInstance(
		[]core.Job{{Req: 0.5, Size: 2}, {Req: 0.5, Size: 1}},
		[]core.Job{{Req: 0.5, Size: 2}},
	)
	got := mustMakespan(t, New(), inst)
	if got < 3 {
		t.Fatalf("makespan = %d, expected at least 3 (size-2 jobs need 2 steps each)", got)
	}
}

func TestRoundRobinZeroRequirementPhase(t *testing.T) {
	inst := core.NewInstance([]float64{0, 0.5}, []float64{0, 0.5})
	got := mustMakespan(t, New(), inst)
	if got != 2 {
		t.Fatalf("makespan = %d, want 2 (zero-requirement phase takes one step)", got)
	}
}

func TestRoundRobinName(t *testing.T) {
	if New().Name() != "round-robin" {
		t.Fatalf("unexpected name %q", New().Name())
	}
}

func TestPhaseLengthsFigure3(t *testing.T) {
	inst := gen.Figure3(10)
	lengths := PhaseLengths(inst)
	if len(lengths) != 10 {
		t.Fatalf("expected 10 phases, got %d", len(lengths))
	}
	for j, l := range lengths {
		if l != 2 {
			t.Fatalf("phase %d length = %d, want 2 (requirements sum to 1+ε)", j+1, l)
		}
	}
}
