package solver

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"crsharing/internal/algo/branchbound"
	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// corpus returns the small-instance corpus used by the cross-solver
// equivalence suite: random unit-size instances in the size range every
// registered solver (that accepts the processor count) can handle.
func corpus() []*core.Instance {
	rng := rand.New(rand.NewSource(20140623))
	var insts []*core.Instance
	for trial := 0; trial < 15; trial++ {
		m := 2 + rng.Intn(2)
		jobs := 2 + rng.Intn(2)
		insts = append(insts, gen.Random(rng, m, jobs, 0.05, 1.0))
	}
	insts = append(insts, gen.Figure1(), gen.Figure2(), gen.Figure3(6))
	return insts
}

// TestPortfolioNotWorseThanAnyMember is the acceptance property of the
// portfolio: on every corpus instance its makespan is at most the makespan of
// every individual registered solver that accepts the instance.
func TestPortfolioNotWorseThanAnyMember(t *testing.T) {
	reg := Default()
	ctx := context.Background()
	for ci, inst := range corpus() {
		best := -1
		bestName := ""
		for _, name := range reg.Names() {
			if name == "portfolio" {
				continue
			}
			s, err := reg.New(name)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := Evaluate(ctx, s, inst)
			if err != nil {
				continue // solver rejects the instance (e.g. m != 2 for the DP)
			}
			if best < 0 || ev.Makespan < best {
				best, bestName = ev.Makespan, name
			}
		}
		if best < 0 {
			t.Fatalf("corpus %d: no individual solver accepted the instance", ci)
		}
		port, err := reg.New("portfolio")
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(ctx, port, inst)
		if err != nil {
			t.Fatalf("corpus %d: portfolio: %v", ci, err)
		}
		if ev.Makespan > best {
			t.Fatalf("corpus %d: portfolio makespan %d worse than %s's %d", ci, ev.Makespan, bestName, best)
		}
	}
}

// TestPortfolioMatchesBruteforce pins the portfolio to the independent
// optimum oracle on the corpus: the default portfolio contains exact members,
// so its result must be optimal wherever the oracle applies.
func TestPortfolioMatchesBruteforce(t *testing.T) {
	ctx := context.Background()
	for ci, inst := range corpus() {
		if !inst.IsUnitSize() || inst.TotalJobs() > 12 {
			continue
		}
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			continue
		}
		ev, err := Evaluate(ctx, NewDefaultPortfolio(), inst)
		if err != nil {
			t.Fatalf("corpus %d: %v", ci, err)
		}
		if ev.Makespan != want {
			t.Fatalf("corpus %d: portfolio makespan %d, bruteforce optimum %d\n%v", ci, ev.Makespan, want, inst)
		}
	}
}

// TestExactPortfolioRace checks the exact-only racing portfolio against the
// oracle and confirms the winner is one of its members.
func TestExactPortfolioRace(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.Intn(2)
		inst := gen.Random(rng, m, 2+rng.Intn(2), 0.05, 1.0)
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatal(err)
		}
		sched, stats, err := NewExactPortfolio().Solve(ctx, inst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res, err := core.Execute(inst, sched)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Makespan() != want {
			t.Fatalf("trial %d: exact portfolio makespan %d, want %d", trial, res.Makespan(), want)
		}
		if stats.Solver != "portfolio" {
			t.Fatalf("trial %d: requested solver not reported: %+v", trial, stats)
		}
		if stats.Winner == "" || stats.Winner == "portfolio" {
			t.Fatalf("trial %d: winner not reported: %+v", trial, stats)
		}
	}
}

// hardInstance is an adversarial instance whose exact search runs for many
// minutes serially, used to guarantee that cancellation lands mid-solve.
func hardInstance() *core.Instance {
	const m, blocks = 7, 3
	return gen.GreedyWorstCase(m, blocks, 1.0/float64(20*m*(m+1)))
}

// TestPortfolioCancelMidSolveNoLeak cancels a portfolio mid-solve and asserts
// a prompt return and no leaked goroutines.
func TestPortfolioCancelMidSolveNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	port := NewPortfolio(
		Adapt(branchbound.New()),
		Adapt(branchbound.NewParallel()),
		Adapt(greedybalance.New()),
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The greedy member succeeds instantly; the branch-and-bound members
		// must be cut short by the cancellation. The portfolio still returns
		// the greedy schedule.
		sched, _, err := port.Solve(ctx, hardInstance())
		if err != nil {
			t.Errorf("portfolio failed: %v", err)
			return
		}
		if sched == nil || sched.Steps() == 0 {
			t.Error("portfolio returned empty schedule")
		}
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("portfolio did not return promptly after cancellation")
	}

	// All member goroutines must be gone shortly after Solve returned.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPortfolioDeadline runs the portfolio of only-slow members against a
// deadline and asserts it reports the context error.
func TestPortfolioDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	port := NewPortfolio(Adapt(branchbound.NewParallel()))
	start := time.Now()
	_, _, err := port.Solve(ctx, hardInstance())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("portfolio took %v to honour a 50ms deadline", elapsed)
	}
}

// TestPortfolioTimeoutSemantics pins down the best-effort contract of
// Portfolio.Solve: a member result obtained before the deadline is returned
// with a nil error even though the parent context has expired by the time
// Solve returns, while a portfolio whose members were all cancelled reports
// the context error.
func TestPortfolioTimeoutSemantics(t *testing.T) {
	inst := core.NewInstance([]float64{0.5})
	sched := core.NewSchedule(1, 1)
	sched.Alloc[0][0] = 0.5

	t.Run("member finished before deadline", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		finished := make(chan struct{})
		fast := solveFunc{name: "fast", fn: func(context.Context, *core.Instance) (*core.Schedule, error) {
			close(finished)
			return sched.Clone(), nil
		}}
		slow := solveFunc{name: "slow", fn: func(ctx context.Context, _ *core.Instance) (*core.Schedule, error) {
			<-finished // the fast member has returned its schedule
			cancel()   // now the parent context expires mid-race
			<-ctx.Done()
			return nil, ctx.Err()
		}}
		got, st, err := NewPortfolio(fast, slow).Solve(ctx, inst)
		if err != nil {
			t.Fatalf("got %v, want nil error despite expired context", err)
		}
		if got == nil || st.Winner != "fast" {
			t.Fatalf("winner = %q (schedule %v), want fast", st.Winner, got)
		}
		if ctx.Err() == nil {
			t.Fatal("test invariant: parent context should be expired")
		}
	})

	t.Run("all members cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		blocked := solveFunc{name: "blocked", fn: func(ctx context.Context, _ *core.Instance) (*core.Schedule, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}}
		_, _, err := NewPortfolio(blocked, blocked).Solve(ctx, inst)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})
}

// solveFunc adapts a function to the Solver interface for tests.
type solveFunc struct {
	name string
	fn   func(context.Context, *core.Instance) (*core.Schedule, error)
}

func (s solveFunc) Name() string { return s.name }

func (s solveFunc) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, Stats, error) {
	sched, err := s.fn(ctx, inst)
	return sched, Stats{Solver: s.name}, err
}

// TestRegistry covers lookup, unknown names and duplicate registration.
func TestRegistry(t *testing.T) {
	reg := Default()
	names := reg.Names()
	if len(names) < 10 {
		t.Fatalf("expected at least 10 registered solvers, got %v", names)
	}
	for _, want := range []string{"greedy-balance", "branch-and-bound-parallel", "opt-res-assignment-2", "portfolio"} {
		if _, err := reg.New(want); err != nil {
			t.Fatalf("missing %q: %v", want, err)
		}
	}
	if _, err := reg.New("no-such-solver"); err == nil {
		t.Fatal("expected error for unknown solver")
	}
	// The retired parallel twin of the Theorem-6 enumeration is an unknown
	// name whose error points at the serial kernel that remains.
	if _, err := reg.New("opt-res-assignment-2-parallel"); err == nil || !strings.Contains(err.Error(), `opt-res-assignment-2 `) {
		t.Fatalf("retired opt-res-assignment-2-parallel: err=%v, want unknown solver listing opt-res-assignment-2", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	reg.Register("greedy-balance", func() Solver { return Adapt(greedybalance.New()) })
}

// TestRegistryNamesMatchSolvers guards the explicit registration names of
// Default() against drifting from the solvers' own Name() methods.
func TestRegistryNamesMatchSolvers(t *testing.T) {
	reg := Default()
	for _, name := range reg.Names() {
		s, err := reg.New(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Name(); got != name {
			t.Errorf("registered as %q but solver names itself %q", name, got)
		}
	}
}

// TestRegistryIsLazy confirms Register and Lookup leave the factory
// uninvoked: building a solver per registration was the bug that made
// Default() construct and discard a full portfolio. Lookup fails exactly as
// New does.
func TestRegistryIsLazy(t *testing.T) {
	reg := NewRegistry()
	built := 0
	reg.Register("lazy", func() Solver {
		built++
		return Adapt(greedybalance.New())
	})
	if built != 0 {
		t.Fatalf("factory invoked %d times during registration, want 0", built)
	}
	if err := reg.Lookup("lazy"); err != nil || built != 0 {
		t.Fatalf("Lookup = %v after %d factory calls, want nil after 0", err, built)
	}
	if _, err := reg.New("lazy"); err != nil {
		t.Fatal(err)
	}
	if built != 1 {
		t.Fatalf("factory invoked %d times after New, want 1", built)
	}
	_, newErr := reg.New("no-such-solver")
	if err := reg.Lookup("no-such-solver"); err == nil || newErr == nil || err.Error() != newErr.Error() {
		t.Fatalf("Lookup of an unknown name = %v, want New's error %v", err, newErr)
	}
}

// TestAdapterForwardsContext confirms that a context-aware scheduler wrapped
// by Adapt honours cancellation.
func TestAdapterForwardsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, err := Adapt(branchbound.New()).Solve(ctx, hardInstance())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestDefaultPortfolioAnswersWideGadget races the default portfolio on
// Partition gadgets wider than every exact member supports: those members
// reject the instance with an error and the heuristics still answer.
func TestDefaultPortfolioAnswersWideGadget(t *testing.T) {
	for _, m := range []int{branchbound.MaxProcessors + 1, 40, 64} {
		elems := make([]int64, m)
		for i := range elems {
			elems[i] = 2
		}
		if m%2 == 0 {
			elems[m-1] = 4
		}
		inst, err := gen.PartitionGadget(elems, 0.5/float64(m))
		if err != nil {
			t.Fatalf("PartitionGadget(m=%d): %v", m, err)
		}
		sched, _, err := NewDefaultPortfolio().Solve(context.Background(), inst)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		res, err := core.Execute(inst, sched)
		if err != nil || !res.Finished() {
			t.Fatalf("m=%d: invalid schedule (err=%v)", m, err)
		}
	}
}
