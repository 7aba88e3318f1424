package solver

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/progress"
)

// settleInstance has two processors with two unit jobs of requirement 0.4
// each: its lower bound is 2 and a zero-waste schedule reaches it.
func settleInstance() *core.Instance {
	return core.NewInstance([]float64{0.4, 0.4}, []float64{0.4, 0.4})
}

// evenSchedule runs both processors side by side for 2 steps, granting each
// share per step: 0.4 wastes nothing, more wastes the excess.
func evenSchedule(share float64) *core.Schedule {
	s := core.NewSchedule(2, 2)
	for t := 0; t < 2; t++ {
		s.Alloc[t][0], s.Alloc[t][1] = share, share
	}
	return s
}

// tightSchedule finishes settleInstance in 2 steps with zero waste.
func tightSchedule() *core.Schedule { return evenSchedule(0.4) }

// slackSchedule finishes settleInstance in 3 steps with zero waste, one step
// above the lower bound.
func slackSchedule() *core.Schedule {
	s := core.NewSchedule(3, 2)
	s.Alloc[0][0] = 0.4
	s.Alloc[1][0], s.Alloc[1][1] = 0.4, 0.4
	s.Alloc[2][1] = 0.4
	return s
}

// returns is a member that answers sched at once.
func returns(name string, sched *core.Schedule) solveFunc {
	return solveFunc{name: name, fn: func(context.Context, *core.Instance) (*core.Schedule, error) {
		return sched.Clone(), nil
	}}
}

// blocked is a member that runs until its context ends.
func blocked(name string) solveFunc {
	return solveFunc{name: name, fn: func(ctx context.Context, _ *core.Instance) (*core.Schedule, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
}

// settleCtx bounds a race that must settle by itself, so a broken settle
// rule fails the test instead of hanging it on a blocked member.
func settleCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// exactFunc marks a stub member as exact.
type exactFunc struct{ solveFunc }

func (exactFunc) IsExact() bool { return true }

// candidateErrs returns the per-member errors of a portfolio run.
func candidateErrs(st Stats) []error {
	errs := make([]error, len(st.Candidates))
	for i, c := range st.Candidates {
		errs[i] = c.Err
	}
	return errs
}

// TestPortfolioSettleSlowerEarlierMemberHoldsStop checks that a certified
// answer does not settle the race while an earlier member still runs: the
// earlier member could still tie it and win on member order.
func TestPortfolioSettleSlowerEarlierMemberHoldsStop(t *testing.T) {
	// The portfolio announces a member's answer as an incumbent only after
	// taking it in, so the observer tells the slow member when the
	// certified answer is in.
	certified := make(chan struct{})
	ctx := progress.WithObserver(settleCtx(t), func(inc progress.Incumbent) {
		if inc.Solver == "fast" {
			close(certified)
		}
	})
	slow := solveFunc{name: "slow", fn: func(ctx context.Context, _ *core.Instance) (*core.Schedule, error) {
		<-certified
		if err := ctx.Err(); err != nil {
			t.Errorf("race stopped while an earlier member ran: %v", context.Cause(ctx))
		}
		return slackSchedule(), nil
	}}
	_, st, err := NewPortfolio(slow, returns("fast", tightSchedule()), blocked("waiting")).Solve(ctx, settleInstance())
	if err != nil {
		t.Fatal(err)
	}
	if st.Winner != "fast" {
		t.Fatalf("winner %q, want fast", st.Winner)
	}
	errs := candidateErrs(st)
	if errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], ErrRaceSettled) {
		t.Fatalf("candidate errors %v, want [nil nil race settled]", errs)
	}
}

// TestPortfolioSettleCancelsOnlyLaterMembers checks that settling cancels
// exactly the members after the certified one, and that a later member
// failing for a reason of its own keeps its own error.
func TestPortfolioSettleCancelsOnlyLaterMembers(t *testing.T) {
	rejects := errors.New("rejects the instance")
	failing := solveFunc{name: "failing", fn: func(ctx context.Context, _ *core.Instance) (*core.Schedule, error) {
		<-ctx.Done()
		return nil, rejects
	}}
	members := []Solver{
		returns("worse", slackSchedule()),
		exactFunc{returns("certified", tightSchedule())},
		blocked("later"),
		failing,
	}
	// The first two members must both be done before the race can settle;
	// run it many times so every finishing order gets exercised.
	for run := 0; run < 50; run++ {
		_, st, err := NewPortfolio(members...).Solve(settleCtx(t), settleInstance())
		if err != nil {
			t.Fatal(err)
		}
		if st.Winner != "certified" {
			t.Fatalf("winner %q, want certified", st.Winner)
		}
		errs := candidateErrs(st)
		if errs[0] != nil || errs[1] != nil || !errors.Is(errs[2], ErrRaceSettled) || !errors.Is(errs[3], rejects) {
			t.Fatalf("candidate errors %v, want [nil nil race settled rejects]", errs)
		}
		if st.Candidates[0].Makespan != 3 || st.Candidates[1].Makespan != 2 {
			t.Fatalf("candidates %+v", st.Candidates)
		}
	}
}

// TestPortfolioSettleExactCertifiesAboveLowerBound checks that an exact
// member's makespan certifies an earlier heuristic answer that sits above
// the instance's lower bound, while the same makespan from a heuristic
// certifies nothing.
func TestPortfolioSettleExactCertifiesAboveLowerBound(t *testing.T) {
	inst := settleInstance()
	if lb := core.LowerBounds(inst).Best(); lb != 2 {
		t.Fatalf("test invariant: lower bound %d, want 2", lb)
	}

	t.Run("exact", func(t *testing.T) {
		_, st, err := NewPortfolio(
			returns("greedy", slackSchedule()),
			exactFunc{returns("exact", slackSchedule())},
			blocked("waiting"),
		).Solve(settleCtx(t), inst)
		if err != nil {
			t.Fatal(err)
		}
		if st.Winner != "greedy" {
			t.Fatalf("winner %q, want greedy", st.Winner)
		}
		if errs := candidateErrs(st); !errors.Is(errs[2], ErrRaceSettled) {
			t.Fatalf("candidate errors %v, want the blocked member settled", errs)
		}
	})

	t.Run("heuristic", func(t *testing.T) {
		// The same makespan from a heuristic proves nothing.
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, st, err := NewPortfolio(
			returns("greedy", slackSchedule()),
			returns("other", slackSchedule()),
			blocked("waiting"),
		).Solve(ctx, inst)
		if err != nil {
			t.Fatal(err)
		}
		if errs := candidateErrs(st); !errors.Is(errs[2], context.DeadlineExceeded) {
			t.Fatalf("candidate errors %v, want the blocked member to run into the deadline", errs)
		}
	})
}

// TestPortfolioSettleNeedsZeroWaste checks that an answer at the lower bound
// that wastes resource does not settle the race: a later member could still
// reach the bound with less waste.
func TestPortfolioSettleNeedsZeroWaste(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, st, err := NewPortfolio(
		exactFunc{returns("wasteful", evenSchedule(0.5))},
		blocked("waiting"),
	).Solve(ctx, settleInstance())
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates[0].Makespan != 2 || st.Candidates[0].Wasted <= 0 {
		t.Fatalf("test invariant: wasteful candidate %+v", st.Candidates[0])
	}
	if errs := candidateErrs(st); !errors.Is(errs[1], context.DeadlineExceeded) {
		t.Fatalf("candidate errors %v, want the blocked member to run into the deadline", errs)
	}
}

// TestSettledErrorText: a settled member's error reads as the wrapped error
// it replaces ("<member>: race settled") and still matches ErrRaceSettled.
func TestSettledErrorText(t *testing.T) {
	var err error = &settledError{member: "anytime-local-search"}
	want := fmt.Errorf("%s: %w", "anytime-local-search", ErrRaceSettled)
	if err.Error() != want.Error() {
		t.Fatalf("Error() = %q, want %q", err.Error(), want.Error())
	}
	if !errors.Is(err, ErrRaceSettled) || errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is: settled %v, canceled %v; want true, false",
			errors.Is(err, ErrRaceSettled), errors.Is(err, context.Canceled))
	}
}
