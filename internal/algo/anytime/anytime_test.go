package anytime

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
)

// executed solves inst and returns the executed result, failing the test on
// any infeasibility.
func executed(t *testing.T, inst *core.Instance, sched *core.Schedule) *core.Result {
	t.Helper()
	res, err := core.Execute(inst, sched)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() {
		t.Fatal("schedule does not finish all jobs")
	}
	return res
}

// TestFeasibleAndNoWorseThanGreedy checks the anytime solver's floor on a
// spread of random instances: the result is always feasible, never worse than
// the GreedyBalance seed, and never beats the instance lower bound.
func TestFeasibleAndNoWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(5)
		inst := gen.RandomUneven(rng, m, 1, 5, 0.05, 1.0)
		gbSched, err := greedybalance.New().Schedule(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		gb := executed(t, inst, gbSched)
		sched, err := New().Schedule(context.Background(), inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := executed(t, inst, sched)
		if res.Makespan() > gb.Makespan() {
			t.Fatalf("trial %d: anytime makespan %d worse than greedy seed %d\n%v",
				trial, res.Makespan(), gb.Makespan(), inst)
		}
		if lb := core.LowerBounds(inst).Best(); res.Makespan() < lb {
			t.Fatalf("trial %d: makespan %d beats the lower bound %d — infeasible\n%v",
				trial, res.Makespan(), lb, inst)
		}
	}
}

// TestDeterministicAcrossRuns pins the reproducibility contract: with the
// same seed and an unexpired context, two runs return identical schedules.
func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := gen.RandomUneven(rng, 4, 2, 5, 0.05, 0.95)
	a, err := New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps() != b.Steps() {
		t.Fatalf("two identical runs returned different lengths: %d vs %d", a.Steps(), b.Steps())
	}
	for tt := range a.Alloc {
		for i := range a.Alloc[tt] {
			if a.Alloc[tt][i] != b.Alloc[tt][i] {
				t.Fatalf("two identical runs diverge at step %d proc %d: %v vs %v",
					tt, i, a.Alloc[tt][i], b.Alloc[tt][i])
			}
		}
	}
}

// TestFirstIncumbentIsImmediate is the anytime contract on a hard instance:
// an instance whose exact search takes orders of magnitude longer must still
// yield a first incumbent from the greedy seed within the phase-1 budget —
// microseconds in practice; the assertion allows generous CI jitter.
func TestFirstIncumbentIsImmediate(t *testing.T) {
	inst := gen.GreedyWorstCase(7, 3, 1.0/(20*7*8))
	var (
		mu    sync.Mutex
		first time.Duration
	)
	start := time.Now()
	ctx := progress.WithObserver(context.Background(), func(inc progress.Incumbent) {
		mu.Lock()
		defer mu.Unlock()
		if first == 0 {
			first = time.Since(start)
		}
	})
	ctx, cancel := context.WithTimeout(ctx, 250*time.Millisecond)
	defer cancel()
	sched, err := New().Schedule(ctx, inst)
	if err != nil {
		t.Fatalf("anytime under a deadline must not fail: %v", err)
	}
	executed(t, inst, sched)
	mu.Lock()
	defer mu.Unlock()
	if first == 0 {
		t.Fatal("no incumbent was ever reported")
	}
	if first > 100*time.Millisecond {
		t.Fatalf("first incumbent took %s, want well under the deadline", first)
	}
	t.Logf("first incumbent after %s", first)
}

// TestCancelledContextReturnsBestSoFar checks the best-effort semantics: a
// context that is already cancelled still returns the phase-1 greedy seed
// with a nil error, because the first candidate is built before the first
// cancellation poll.
func TestCancelledContextReturnsBestSoFar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inst := gen.RandomUneven(rng, 3, 2, 4, 0.1, 0.9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sched, err := New().Schedule(ctx, inst)
	if err != nil {
		t.Fatalf("cancelled context must still return the seed schedule: %v", err)
	}
	executed(t, inst, sched)
}

// TestCandidatesAreCounted checks the telemetry wiring: the solver accounts
// for every candidate schedule it built through progress.AddNodes, and
// reports at least the seed incumbent.
func TestCandidatesAreCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inst := gen.RandomUneven(rng, 4, 2, 5, 0.05, 0.95)
	var ctr progress.Counters
	ctx := progress.WithCounters(context.Background(), &ctr)
	if _, err := New().Schedule(ctx, inst); err != nil {
		t.Fatal(err)
	}
	if ctr.Nodes.Load() < 1 {
		t.Fatal("no candidates were counted")
	}
	if ctr.Incumbents.Load() < 1 {
		t.Fatal("no incumbents were reported")
	}
}

// TestEmptyInstance pins the trivial case.
func TestEmptyInstance(t *testing.T) {
	inst := core.NewInstance(nil, nil)
	sched, err := New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Steps() != 0 {
		t.Fatalf("empty instance got a %d-step schedule", sched.Steps())
	}
}
