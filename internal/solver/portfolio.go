package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/progress"
)

// Portfolio runs its members concurrently on the same instance and returns
// the best schedule any of them produced: lowest makespan, ties broken by
// less wasted resource, remaining ties by member order (which keeps the
// result deterministic). Members that return an error are skipped; the
// portfolio fails only when every member fails.
//
// The race settles early once its answer is certified. The portfolio keeps a
// makespan bound B no schedule can beat: the instance's lower bound, raised
// to the makespan of any exact member that succeeds. As soon as members
// 0..i have all finished and member i holds makespan B with zero waste, no
// later member can win: it can at best tie, waste is never negative, and
// ties go to the lower index. Those later members are cancelled with cause
// ErrRaceSettled, which their Candidate.Err carries. The returned answer is
// the one a race run to completion would pick.
//
// Solve always waits for every member goroutine to return before it returns
// itself, so a cancelled or settled portfolio leaves no goroutines behind.
type Portfolio struct {
	// Members are raced in order; the slice is not modified.
	Members []Solver
	// RaceExact cancels the remaining members as soon as an exact member
	// returns a valid schedule — its result is optimal, so nothing better can
	// arrive. Heuristic members never trigger the cancellation.
	RaceExact bool
}

// ErrRaceSettled is the cancellation cause of portfolio members stopped
// because an earlier member already holds a certified answer.
var ErrRaceSettled = errors.New("race settled")

// settledError is the Candidate.Err of a member stopped because the race
// settled: "<member>: race settled", wrapping ErrRaceSettled.
type settledError struct{ member string }

func (e *settledError) Error() string { return e.member + ": " + ErrRaceSettled.Error() }

func (e *settledError) Unwrap() error { return ErrRaceSettled }

// NewPortfolio returns a portfolio over the given members.
func NewPortfolio(members ...Solver) *Portfolio {
	return &Portfolio{Members: members}
}

// Name implements Solver.
func (p *Portfolio) Name() string { return "portfolio" }

// memberResult is the outcome of one member run.
type memberResult struct {
	sched    *core.Schedule
	makespan int
	wasted   float64
	elapsed  time.Duration
	stats    Stats
	err      error
}

// Solve implements Solver.
//
// Timeout semantics are best-effort by design: the portfolio keeps whatever
// valid schedule its members managed to produce, so if at least one member
// finished before the parent context expired, Solve returns that (possibly
// sub-optimal) schedule with a nil error even though ctx.Err() is by then
// non-nil. The context error is surfaced only when no member produced a
// valid schedule — callers that must distinguish "optimal" from "best found
// within the budget" should consult ctx.Err() themselves after Solve
// returns.
func (p *Portfolio) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, Stats, error) {
	start := time.Now()
	if len(p.Members) == 0 {
		return nil, Stats{Solver: p.Name()}, fmt.Errorf("portfolio: no members")
	}

	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// bestSeen tracks the best makespan any member has produced so far, so
	// finishing members report (strictly) improving incumbents to the
	// context's progress observer as the race unfolds. Kernels that report
	// their own internal incumbents (branch-and-bound) stream through the
	// same observer via cctx.
	var bestSeen atomic.Int64
	bestSeen.Store(math.MaxInt64)
	// ownReports counts the race-level incumbent improvements the portfolio
	// itself announces (member nodes/incumbents are read off the member
	// stats), so Stats.Incumbents covers both levels.
	var ownReports atomic.Int64

	// The settle state (see the type comment) is guarded by mu; results[i]
	// is written under it as member i finishes.
	var (
		mu      sync.Mutex
		done    = make([]bool, len(p.Members))
		bound   = core.LowerBounds(inst).Best()
		settled bool
	)
	results := make([]memberResult, len(p.Members))
	finish := func(idx int, r memberResult, exact bool) {
		mu.Lock()
		defer mu.Unlock()
		results[idx], done[idx] = r, true
		if r.err == nil && exact && r.makespan > bound {
			bound = r.makespan // an exact member's makespan is the optimum
		}
		for i := 0; !settled && i < len(done) && done[i]; i++ {
			if results[i].err == nil && results[i].makespan == bound && results[i].wasted == 0 {
				settled = true
				cancel(ErrRaceSettled)
			}
		}
	}
	var wg sync.WaitGroup
	for idx, member := range p.Members {
		wg.Add(1)
		go func(idx int, member Solver) {
			defer wg.Done()
			mstart := time.Now()
			sched, mstats, err := member.Solve(cctx, inst)
			r := memberResult{elapsed: time.Since(mstart), stats: mstats, err: err}
			if errors.Is(err, context.Canceled) && errors.Is(context.Cause(cctx), ErrRaceSettled) {
				r.err = &settledError{member: member.Name()}
			}
			if err == nil {
				res := resultPool.Get().(*core.Result)
				_, execErr := core.ExecuteInto(res, inst, sched)
				switch {
				case execErr != nil:
					r.err = fmt.Errorf("%s: produced invalid schedule: %w", member.Name(), execErr)
				case !res.Finished():
					r.err = fmt.Errorf("%s: schedule does not finish all jobs", member.Name())
				default:
					r.sched = sched
					r.makespan = res.Makespan()
					r.wasted = res.Wasted()
				}
				resultPool.Put(res)
			}
			exact := isExact(member)
			finish(idx, r, exact)
			if r.err == nil {
				for {
					cur := bestSeen.Load()
					if int64(r.makespan) >= cur {
						break
					}
					if bestSeen.CompareAndSwap(cur, int64(r.makespan)) {
						ownReports.Add(1)
						progress.Report(ctx, progress.Incumbent{Solver: member.Name(), Makespan: r.makespan})
						break
					}
				}
			}
			if r.err == nil && p.RaceExact && exact {
				cancel(nil)
			}
		}(idx, member)
	}
	wg.Wait()

	stats := Stats{Solver: p.Name(), Incumbents: ownReports.Load(), Candidates: make([]Candidate, len(p.Members))}
	bestIdx := -1
	for idx, r := range results {
		stats.Candidates[idx] = Candidate{
			Solver:   p.Members[idx].Name(),
			Makespan: r.makespan,
			Wasted:   r.wasted,
			Elapsed:  r.elapsed,
			Nodes:    r.stats.Nodes,
			Err:      r.err,
		}
		stats.Nodes += r.stats.Nodes
		stats.Incumbents += r.stats.Incumbents
		stats.KernelAllocs += r.stats.KernelAllocs
		if r.stats.WarmStart && !stats.WarmStart {
			// Any member accepting the shared hint marks the whole race warm;
			// every acceptor derived the same makespan from the same schedule.
			stats.WarmStart = true
			stats.SeedMakespan = r.stats.SeedMakespan
		}
		if r.err != nil {
			continue
		}
		if bestIdx < 0 ||
			r.makespan < results[bestIdx].makespan ||
			(r.makespan == results[bestIdx].makespan && r.wasted < results[bestIdx].wasted) {
			bestIdx = idx
		}
	}
	stats.Elapsed = time.Since(start)
	if bestIdx < 0 {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		return nil, stats, fmt.Errorf("portfolio: every member failed: %w", joinErrors(results))
	}
	// Stats.Solver stays "portfolio" — the solver that was asked; the member
	// that actually produced the schedule is reported separately so
	// telemetry can distinguish the two.
	stats.Winner = p.Members[bestIdx].Name()
	return results[bestIdx].sched, stats, nil
}

// isExact reports whether the solver advertises optimality.
func isExact(s Solver) bool {
	if e, ok := s.(exactMarker); ok {
		return e.IsExact()
	}
	return false
}

// joinErrors combines the member errors into one.
func joinErrors(results []memberResult) error {
	var errs []error
	for _, r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
		}
	}
	return errors.Join(errs...)
}
