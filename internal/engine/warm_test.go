package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
	"crsharing/internal/solver"
)

// warmSolver is a stub kernel that honours the warm-start protocol: a
// feasible hint on the context is accepted (recorded via SetWarmSeed, exactly
// as the branch-and-bound kernel does) and surfaces in its stats; the
// schedule itself comes from greedy-balance so it is always valid.
type warmSolver struct {
	name string
}

func (s *warmSolver) Name() string { return s.name }

func (s *warmSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	st := solver.Stats{Solver: s.name, Nodes: 1}
	if h := progress.WarmStartFrom(ctx); h != nil {
		if res, err := core.Execute(inst, h); err == nil && res.Finished() {
			st.WarmStart = true
			st.SeedMakespan = res.Makespan()
			progress.SetWarmSeed(ctx, int64(res.Makespan()))
		}
	}
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	return sched, st, err
}

func newWarmEngine(t *testing.T) *Engine {
	t.Helper()
	reg := solver.NewRegistry()
	reg.Register("warm-stub", func() solver.Solver { return &warmSolver{name: "warm-stub"} })
	eng, err := New(Config{
		Registry:      reg,
		Cache:         solver.NewCache(4, 256),
		DefaultSolver: "warm-stub",
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestRequestWarmStartTelemetry covers the request-supplied hint path: a
// fresh solve that accepts the hint reports warm_start="request" and the
// validated seed makespan; replays of the same answer do not re-claim it.
func TestRequestWarmStartTelemetry(t *testing.T) {
	eng := newWarmEngine(t)
	ctx := context.Background()

	cold, err := eng.Solve(ctx, Request{Instance: core.NewInstance([]float64{0.3, 0.7}, []float64{0.5})})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Telemetry.WarmStart != "" || cold.Telemetry.SeedMakespan != 0 {
		t.Fatalf("hintless solve claims a warm start: %+v", cold.Telemetry)
	}

	inst := core.NewInstance([]float64{0.4, 0.6}, []float64{0.2, 0.8})
	hint, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Solve(ctx, Request{Instance: inst, WarmStart: hint})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Source != solver.SourceSolve {
		t.Fatalf("warm request answered from %q, want a fresh solve", warm.Source)
	}
	if warm.Telemetry.WarmStart != WarmSourceRequest {
		t.Fatalf("warm_start = %q, want %q", warm.Telemetry.WarmStart, WarmSourceRequest)
	}
	if warm.Telemetry.SeedMakespan <= 0 {
		t.Fatalf("seed_makespan = %d, want the hint's validated makespan", warm.Telemetry.SeedMakespan)
	}

	replay, err := eng.Solve(ctx, Request{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Source == solver.SourceSolve {
		t.Fatalf("replay re-solved")
	}
	if replay.Telemetry.WarmStart != "" {
		t.Fatalf("cache replay claims warm_start = %q", replay.Telemetry.WarmStart)
	}

	if snap := eng.Snapshot(); snap.WarmStarts != 1 {
		t.Fatalf("snapshot counts %d warm starts, want 1", snap.WarmStarts)
	}
}

// TestRequestHintAdaptedForMutant covers the engine's adaptation of a
// request hint: the base's schedule, sent raw for a mutant with an appended
// job, runs out of steps on it, so the kernel (which only accepts finishing
// schedules) takes it only once the engine has extended it.
func TestRequestHintAdaptedForMutant(t *testing.T) {
	eng := newWarmEngine(t)
	ctx := context.Background()

	base := core.NewInstance(
		[]float64{0.9, 0.3, 0.5},
		[]float64{0.2, 0.6},
		[]float64{0.7, 0.1},
	)
	seeded, err := eng.Solve(ctx, Request{Instance: base})
	if err != nil {
		t.Fatal(err)
	}

	mutant := base.Clone()
	mutant.Procs[2] = append(mutant.Procs[2], core.UnitJob(0.5))
	if res, err := core.Execute(mutant, seeded.Evaluation.Schedule); err != nil || res.Finished() {
		t.Fatalf("base schedule must run out of steps on the mutant (err %v)", err)
	}
	res, err := eng.Solve(ctx, Request{Instance: mutant, WarmStart: seeded.Evaluation.Schedule})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != solver.SourceSolve {
		t.Fatalf("mutant answered from %q, want a fresh solve", res.Source)
	}
	if res.Telemetry.WarmStart != WarmSourceRequest {
		t.Fatalf("warm_start = %q, want %q", res.Telemetry.WarmStart, WarmSourceRequest)
	}
	if res.Telemetry.SeedMakespan <= 0 {
		t.Fatalf("seed_makespan = %d for an adapted request hint", res.Telemetry.SeedMakespan)
	}
}

// TestRequestHintThroughPortfolio sends a hint through the default
// portfolio, whose anytime and branch-and-bound members read it
// concurrently: the answer must equal a cold portfolio solve, and the
// caller's schedule must come back untouched.
func TestRequestHintThroughPortfolio(t *testing.T) {
	eng, err := New(Config{Registry: solver.Default(), DefaultTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := gen.GreedyWorstCase(3, 3, 0.01)
	seeded, err := eng.Solve(ctx, Request{Instance: base})
	if err != nil {
		t.Fatal(err)
	}
	mutant := gen.Mutate(rand.New(rand.NewSource(1)), base, gen.MutationAppend)

	// The base's answer beats greedy on the mutant once extended, so the
	// members accept the engine's adapted copy; a schedule narrower than
	// the instance cannot be adapted and reaches the members raw.
	for name, tc := range map[string]struct {
		hint     *core.Schedule
		accepted string
	}{
		"adapted": {seeded.Evaluation.Schedule.Clone(), WarmSourceRequest},
		"raw":     {core.NewSchedule(2, mutant.NumProcessors()-1), ""},
	} {
		before, err := json.Marshal(tc.hint)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := eng.Solve(ctx, Request{Instance: mutant})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := eng.Solve(ctx, Request{Instance: mutant, WarmStart: tc.hint})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Evaluation.Makespan != cold.Evaluation.Makespan || warm.Evaluation.Wasted != cold.Evaluation.Wasted {
			t.Fatalf("%s: hinted portfolio (makespan %d, waste %v) differs from cold (%d, %v)", name,
				warm.Evaluation.Makespan, warm.Evaluation.Wasted, cold.Evaluation.Makespan, cold.Evaluation.Wasted)
		}
		if warm.Telemetry.WarmStart != tc.accepted {
			t.Fatalf("%s: warm_start = %q, want %q", name, warm.Telemetry.WarmStart, tc.accepted)
		}
		after, err := json.Marshal(tc.hint)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("%s: solve mutated the caller's hint\nbefore %s\nafter  %s", name, before, after)
		}
	}
}
