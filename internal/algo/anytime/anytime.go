// Package anytime implements the anytime heuristic tier of the solver stack:
// a solver that produces a feasible schedule almost immediately and then
// keeps improving it for as long as its budget (and context) allows.
//
// The solver seeds with the paper's GreedyBalance schedule — reported as the
// first incumbent within microseconds — then sweeps the deterministic greedy
// variants (tie-break and balance ablations), and finally runs a randomized
// multi-start local search: restarts of a priority-perturbed balanced greedy
// scheduler whose per-processor priority noise diversifies the serve order
// around the balance rule. Every strict improvement streams through
// internal/progress, so observers (the jobs incumbent channel, the portfolio
// race) see a monotonically improving makespan.
//
// Unlike the exact solvers, Schedule treats context expiry as the end of
// the improvement budget, not as failure: it returns the best schedule found
// so far, at least the greedy seed, with a nil error (matching the
// portfolio's best-effort semantics). A context that has already ended when
// the solve starts is solver.Adapt's to refuse, as for every kernel.
// The search stops early when an incumbent matches the instance's lower
// bound — the schedule is then provably optimal.
package anytime

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/numeric"
	"crsharing/internal/progress"
)

// DefaultRestarts is the default number of perturbed local-search restarts.
const DefaultRestarts = 192

// Scheduler is the anytime greedy + local-search solver.
type Scheduler struct {
	// Restarts is the perturbed multi-start budget (0 = DefaultRestarts).
	Restarts int
	// Seed seeds the deterministic perturbation stream (0 = 1). Two runs
	// with the same seed and an unexpired context return identical schedules.
	Seed int64
}

// New returns an anytime solver with the default budget.
func New() *Scheduler { return &Scheduler{} }

// Name returns "anytime-local-search".
func (s *Scheduler) Name() string { return "anytime-local-search" }

// candidate is one evaluated feasible schedule.
type candidate struct {
	sched    *core.Schedule
	makespan int
	wasted   float64
}

// better reports whether a improves on b: lower makespan, ties by less waste.
func (c candidate) better(b *candidate) bool {
	if b == nil {
		return true
	}
	return c.makespan < b.makespan || (c.makespan == b.makespan && c.wasted < b.wasted)
}

// Schedule runs the anytime improvement loop under ctx. See the package
// comment for the cancellation semantics.
func (s *Scheduler) Schedule(ctx context.Context, inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.TotalJobs() == 0 {
		return &core.Schedule{}, nil
	}
	restarts := s.Restarts
	if restarts <= 0 {
		restarts = DefaultRestarts
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	lb := core.LowerBounds(inst).Best()

	var best *candidate
	var built int64
	finish := func() (*core.Schedule, error) {
		progress.AddNodes(ctx, built)
		return best.sched, nil
	}
	// offer evaluates sched and installs it as the incumbent when it
	// improves, streaming the improvement to the context's observer.
	offer := func(sched *core.Schedule, err error) bool {
		if err != nil {
			return false
		}
		built++
		res, execErr := core.Execute(inst, sched)
		if execErr != nil || !res.Finished() {
			return false
		}
		c := candidate{sched: sched, makespan: res.Makespan(), wasted: res.Wasted()}
		if !c.better(best) {
			return false
		}
		improvedMakespan := best == nil || c.makespan < best.makespan
		best = &c
		if improvedMakespan {
			progress.Report(ctx, progress.Incumbent{Solver: s.Name(), Makespan: c.makespan})
		}
		return true
	}

	// Phase 1: the greedy seed — the first incumbent, available immediately.
	offer(greedybalance.New().Schedule(ctx, inst))
	if best == nil {
		// GreedyBalance handles every valid instance; reaching this is a bug
		// in the instance rather than a budget problem.
		return nil, fmt.Errorf("anytime: could not build a feasible seed schedule")
	}
	// A warm-start hint competes right after the seed. offer re-executes it
	// against this instance, so an infeasible or stale hint is simply
	// rejected; a valid one that beats the greedy seed becomes the incumbent
	// (the anytime tier is heuristic — returning the hint itself is fine).
	// The hint is cloned because later candidates may be installed over it
	// and hints are shared across portfolio members.
	if h := progress.WarmStartFrom(ctx); h != nil {
		if offer(h.Clone(), nil) {
			progress.SetWarmSeed(ctx, int64(best.makespan))
		}
	}
	if best.makespan <= lb {
		return finish()
	}

	// Phase 2: the deterministic greedy variants.
	variants := []*greedybalance.Scheduler{
		greedybalance.NewWithTie(greedybalance.SmallerRemaining),
		greedybalance.NewWithTie(greedybalance.ProcessorIndex),
		greedybalance.NewUnbalanced(greedybalance.LargerRemaining),
		greedybalance.NewUnbalanced(greedybalance.SmallerRemaining),
		greedybalance.NewUnbalanced(greedybalance.ProcessorIndex),
	}
	for _, v := range variants {
		if ctx.Err() != nil {
			return finish()
		}
		offer(v.Schedule(ctx, inst))
		if best.makespan <= lb {
			return finish()
		}
	}

	// Phase 3: multi-start local search. Each restart reruns the balanced
	// greedy scheduler with static per-processor priority noise; small
	// amplitudes explore tie-breaks around the balance rule, large ones
	// scramble it. The rng stream is deterministic in the seed.
	rng := rand.New(rand.NewSource(seed))
	amps := [...]float64{0.1, 0.25, 0.45, 0.8, 1.5, 3.0}
	noise := make([]float64, inst.NumProcessors())
	for r := 0; r < restarts; r++ {
		if ctx.Err() != nil {
			return finish()
		}
		amp := amps[r%len(amps)]
		for i := range noise {
			noise[i] = amp * (rng.Float64()*2 - 1)
		}
		offer(perturbedSchedule(inst, noise))
		if best.makespan <= lb {
			return finish()
		}
	}
	return finish()
}

// perturbedSchedule builds a schedule with the balanced greedy rule under
// static per-processor priority noise: processors are served in decreasing
// remaining-jobs-plus-noise order, each receiving its full remaining demand
// until the resource runs out.
func perturbedSchedule(inst *core.Instance, noise []float64) (*core.Schedule, error) {
	b := core.NewBuilder(inst)
	m := b.NumProcessors()
	order := make([]int, 0, m)
	shares := make([]float64, m)
	sched := b.BuildGreedy(func(b *core.Builder) []float64 {
		order = order[:0]
		for i := 0; i < m; i++ {
			shares[i] = 0
			if b.Active(i) {
				order = append(order, i)
			}
		}
		sort.SliceStable(order, func(x, y int) bool {
			a, c := order[x], order[y]
			sa := float64(b.RemainingJobs(a)) + noise[a]
			sc := float64(b.RemainingJobs(c)) + noise[c]
			if sa != sc {
				return sa > sc
			}
			return a < c
		})
		avail := 1.0
		for _, i := range order {
			if avail <= numeric.Eps {
				break
			}
			give := math.Min(avail, b.DemandThisStep(i))
			shares[i] = give
			avail -= give
		}
		return shares
	})
	return sched, nil
}
