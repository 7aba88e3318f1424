package branchbound_test

// Warm-start contract of the exact kernels, over the mutation-chain workload
// the serving layer produces: a validated hint that beats the greedy seed is
// installed as the initial incumbent, so it may only tighten the pruning
// bound — never the optimum. The tests pin the result contract (identical
// makespan and waste between cold and warm runs; byte-identical schedules
// whenever the hint is rejected or the search improves on it), the ≥5x node
// reduction on a single-mutation chain, and the rejection of infeasible,
// stale, or useless hints; the benchmarks back the node-count assertions
// with wall-clock and allocation numbers.

import (
	"context"
	"math/rand"
	"testing"

	"crsharing/internal/algo/branchbound"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
	"crsharing/internal/solver"
)

// kernel is the solve method the shared tests call.
type kernel interface {
	ScheduleContext(ctx context.Context, inst *core.Instance) (*core.Schedule, error)
}

// solveCounted runs one kernel solve with fresh counters and an optional
// warm-start hint, returning the schedule, the nodes explored, and the
// recorded warm seed (0 = hint absent or rejected).
func solveCounted(t *testing.T, k kernel, inst *core.Instance, hint *core.Schedule) (*core.Schedule, int64, int64) {
	t.Helper()
	ctr := &progress.Counters{}
	ctx := progress.WithWarmStart(progress.WithCounters(context.Background(), ctr), hint)
	sched, err := k.ScheduleContext(ctx, inst)
	if err != nil {
		t.Fatalf("ScheduleContext: %v", err)
	}
	return sched, ctr.Nodes.Load(), ctr.WarmSeed.Load()
}

// sameSchedule reports bit-exact equality: same shape, identical float64
// values in every cell.
func sameSchedule(a, b *core.Schedule) bool {
	if a.Steps() != b.Steps() || a.NumProcessors() != b.NumProcessors() {
		return false
	}
	for t := range a.Alloc {
		for i := range a.Alloc[t] {
			if a.Alloc[t][i] != b.Alloc[t][i] {
				return false
			}
		}
	}
	return true
}

// sameResult asserts the warm-start result contract: identical makespan and
// identical waste, whichever optimal schedule was returned.
func sameResult(t *testing.T, inst *core.Instance, cold, warm *core.Schedule) {
	t.Helper()
	cr, err := core.Execute(inst, cold)
	if err != nil || !cr.Finished() {
		t.Fatalf("cold schedule infeasible: %v", err)
	}
	wr, err := core.Execute(inst, warm)
	if err != nil || !wr.Finished() {
		t.Fatalf("warm schedule infeasible: %v", err)
	}
	if cr.Makespan() != wr.Makespan() {
		t.Fatalf("warm makespan %d != cold makespan %d", wr.Makespan(), cr.Makespan())
	}
	if cr.Wasted() != wr.Wasted() {
		t.Fatalf("warm waste %g != cold waste %g", wr.Wasted(), cr.Wasted())
	}
}

// dropFirst removes the first job of processor p — the chain mutation whose
// adapted hint is strongest (the neighbor's schedule still finishes).
func dropFirst(inst *core.Instance, p int) *core.Instance {
	out := inst.Clone()
	out.Procs[p] = append([]core.Job(nil), out.Procs[p][1:]...)
	return out
}

// The Partition-gadget chain helpers live in the internal test package,
// which shares them with the kernel's own tests.
var (
	chainBase = branchbound.ChainBase
	nudgeDown = branchbound.NudgeDown
)

func TestWarmStartChainNodeReduction(t *testing.T) {
	base := chainBase(t)
	prev, _, _ := solveCounted(t, branchbound.New(), base, nil)

	cur := base
	var coldNodes, warmNodes int64
	for step := 0; step < 6; step++ {
		variant := nudgeDown(cur, step%cur.NumProcessors(), 0, 1e-4)
		hint, ok := solver.AdaptSchedule(variant, prev)
		if !ok {
			t.Fatalf("step %d: AdaptSchedule failed", step)
		}
		cold, nc, _ := solveCounted(t, branchbound.New(), variant, nil)
		warm, nw, seed := solveCounted(t, branchbound.New(), variant, hint)
		sameResult(t, variant, cold, warm)
		if seed == 0 {
			t.Fatalf("step %d: hint was not accepted; the warm-start path is dead", step)
		}
		if nw > nc {
			t.Fatalf("step %d: warm solve explored more nodes (%d) than cold (%d)", step, nw, nc)
		}
		coldNodes += nc
		warmNodes += nw
		cur, prev = variant, cold
	}
	if coldNodes < 5*warmNodes {
		t.Fatalf("chain explored %d cold vs %d warm nodes; want at least a 5x reduction", coldNodes, warmNodes)
	}
	t.Logf("chain nodes: cold=%d warm=%d (%.1fx)", coldNodes, warmNodes, float64(coldNodes)/float64(warmNodes))
}

// TestWarmStartImprovedHintIsByteIdentical pins the byte-identity half of the
// contract: when the search finds a schedule strictly better than the hint,
// the returned schedule is the cold run's, byte for byte — the hint only
// tightened the bound.
func TestWarmStartImprovedHintIsByteIdentical(t *testing.T) {
	base := dropFirst(gen.GreedyWorstCase(4, 3, 0.01), 0)
	prev, _, _ := solveCounted(t, branchbound.New(), base, nil)
	// Dropping a second job lowers the optimum below the adapted hint's
	// makespan, so the warm search must improve on the installed incumbent.
	variant := dropFirst(base, 1)
	hint, ok := solver.AdaptSchedule(variant, prev)
	if !ok {
		t.Fatalf("AdaptSchedule failed")
	}
	cold, _, _ := solveCounted(t, branchbound.New(), variant, nil)
	warm, _, seed := solveCounted(t, branchbound.New(), variant, hint)
	if seed == 0 {
		t.Fatalf("hint was not accepted")
	}
	cr, _ := core.Execute(variant, cold)
	if int64(cr.Makespan()) >= seed {
		t.Fatalf("test instance does not force an improvement: optimum %d, hint %d", cr.Makespan(), seed)
	}
	if !sameSchedule(cold, warm) {
		t.Fatalf("warm-started schedule differs from cold after improving on the hint")
	}
}

// TestWarmStartPropertyRandomChains is the property test: over random
// instances and mutation chains, a warm-started exact solve returns the same
// makespan and waste as the cold solve, whatever the hint's quality — and is
// byte-identical whenever the hint was rejected.
func TestWarmStartPropertyRandomChains(t *testing.T) {
	rng := rand.New(rand.NewSource(449))
	for trial := 0; trial < 12; trial++ {
		m := 2 + rng.Intn(3)
		base := gen.RandomUneven(rng, m, 1, 4, 0.05, 0.95)
		prev, _, _ := solveCounted(t, branchbound.New(), base, nil)
		cur := base
		for step := 0; step < 3; step++ {
			variant := gen.Mutate(rng, cur, gen.Mutations[step%len(gen.Mutations)])
			// The previous schedule is offered raw — AdaptSchedule is what
			// production does, but the kernel must also survive unadapted
			// (often infeasible-as-is) hints.
			hint := prev
			if adapted, ok := solver.AdaptSchedule(variant, prev); ok && step%2 == 0 {
				hint = adapted
			}
			cold, _, _ := solveCounted(t, branchbound.New(), variant, nil)
			warm, _, seed := solveCounted(t, branchbound.New(), variant, hint)
			sameResult(t, variant, cold, warm)
			if seed == 0 && !sameSchedule(cold, warm) {
				t.Fatalf("trial %d step %d: rejected hint changed the schedule\n%v", trial, step, variant)
			}
			cur, prev = variant, cold
		}
	}
}

func TestWarmStartRejectsBadHints(t *testing.T) {
	inst := gen.GreedyWorstCase(3, 2, 0.01)
	cold, _, _ := solveCounted(t, branchbound.New(), inst, nil)

	tooShort := core.NewSchedule(1, inst.NumProcessors()) // cannot finish
	wrongShape := core.NewSchedule(cold.Steps(), inst.NumProcessors()+2)
	stale := solveHelper(t, dropFirst(inst, 0)) // solved for a different instance
	for name, hint := range map[string]*core.Schedule{
		"infeasible":  tooShort,
		"wrong-shape": wrongShape,
		"stale":       stale,
		"self":        cold, // valid: the optimum itself; installed, never improved, returned intact
	} {
		warm, _, seed := solveCounted(t, branchbound.New(), inst, hint)
		if !sameSchedule(cold, warm) {
			t.Fatalf("%s hint changed the schedule", name)
		}
		if name != "self" && seed > 0 {
			t.Fatalf("%s hint was accepted (seed %d); it should have been rejected", name, seed)
		}
	}
}

func solveHelper(t *testing.T, inst *core.Instance) *core.Schedule {
	t.Helper()
	sched, err := branchbound.New().Schedule(inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return sched
}

// benchChain precomputes the single-mutation chain the warm benchmarks replay:
// each element carries the instance and the hint adapted from its
// predecessor's exact schedule.
type benchStep struct {
	inst *core.Instance
	hint *core.Schedule
}

func buildBenchChain(b *testing.B) []benchStep {
	b.Helper()
	base := chainBase(b)
	prev, err := branchbound.New().Schedule(base)
	if err != nil {
		b.Fatalf("Schedule: %v", err)
	}
	cur := base
	var steps []benchStep
	for step := 0; step < 6; step++ {
		variant := nudgeDown(cur, step%cur.NumProcessors(), 0, 1e-4)
		hint, ok := solver.AdaptSchedule(variant, prev)
		if !ok {
			b.Fatalf("AdaptSchedule failed")
		}
		steps = append(steps, benchStep{inst: variant, hint: hint})
		sched, err := branchbound.New().Schedule(variant)
		if err != nil {
			b.Fatalf("Schedule: %v", err)
		}
		cur, prev = variant, sched
	}
	return steps
}

// BenchmarkWarmStartChain solves the mutation chain with each step's hint
// attached; BenchmarkWarmStartCold solves the identical chain cold. The pair
// is in the benchdiff regression gate: the warm chain must stay faster than
// the cold one and must not grow its allocations per op.
func BenchmarkWarmStartChain(b *testing.B) {
	steps := buildBenchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, s := range steps {
			ctx := progress.WithWarmStart(context.Background(), s.hint)
			if _, err := branchbound.New().ScheduleContext(ctx, s.inst); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWarmStartCold(b *testing.B) {
	steps := buildBenchChain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, s := range steps {
			if _, err := branchbound.New().Schedule(s.inst); err != nil {
				b.Fatal(err)
			}
		}
	}
}
