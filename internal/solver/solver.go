// Package solver unifies every scheduling algorithm of this repository behind
// a single context-aware interface and adds the concurrency layer on top of
// it: a registry the CLIs select solvers from, and a parallel portfolio
// runner that races several solvers on one instance and keeps the best
// schedule. Batches are sharded across workers by engine.SolveEach.
//
// Every package under internal/algo implements Kernel, and Adapt lifts a
// Kernel to a Solver. The searching kernels (branch-and-bound, the
// configuration enumeration, the chunked heuristic and the anytime tier)
// poll the context; the polynomial ones finish without looking at it.
// Evaluate is the one place that checks an answer is feasible and finishes
// every job.
package solver

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/progress"
)

// Stats carries bookkeeping about one Solve call.
type Stats struct {
	// Solver is the name of the solver that was asked to solve — for a
	// portfolio this is "portfolio", never a member name.
	Solver string
	// Winner is the name of the solver that actually produced the returned
	// schedule: the winning member for a portfolio, the solver itself
	// otherwise.
	Winner string
	// Elapsed is the wall-clock duration of the Solve call.
	Elapsed time.Duration
	// Nodes counts the search nodes (branch-and-bound) or configurations
	// (enumeration algorithms) the solve explored, summed over every nested
	// kernel; it is zero for the polynomial-time heuristics. The kernels
	// report through internal/progress counters installed by the adapter.
	Nodes int64
	// Incumbents counts the improving solutions reported while the solve ran.
	Incumbents int64
	// KernelAllocs counts the heap-allocation events the search kernels
	// recorded on their hot path (scratch growth, reported through
	// internal/progress); steady-state exact solves report zero or
	// near-zero. Together with Nodes it yields allocs-per-node telemetry.
	KernelAllocs int64
	// WarmStart reports that a kernel accepted a warm-start hint attached to
	// the solve context (see progress.WithWarmStart) and used it to tighten
	// its pruning bound or seed its incumbent.
	WarmStart bool
	// SeedMakespan is the validated makespan of the accepted warm-start hint;
	// zero when no hint was used.
	SeedMakespan int
	// Candidates records the per-member outcomes of a portfolio run; it is
	// empty for plain solvers.
	Candidates []Candidate
}

// Candidate is the outcome of one portfolio member.
type Candidate struct {
	Solver   string
	Makespan int
	Wasted   float64
	Elapsed  time.Duration
	Nodes    int64
	// Err is the member's failure; it wraps ErrRaceSettled when the member
	// was stopped because the race had already settled.
	Err error
}

// Solver computes a feasible schedule for a CRSharing instance under a
// context: implementations return promptly with ctx.Err() once the context is
// cancelled or its deadline passes.
type Solver interface {
	// Name returns a short stable identifier, e.g. "branch-and-bound".
	Name() string
	// Solve computes a complete feasible schedule for the instance.
	Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, Stats, error)
}

// Kernel is one scheduling algorithm of internal/algo. Schedule returns a
// feasible schedule that finishes every job, or an error when the instance
// lies outside the algorithm's domain (the m=2 dynamic program rejects three
// processors) or ctx ends first.
type Kernel interface {
	// Name returns a short stable identifier, e.g. "greedy-balance".
	Name() string
	// Schedule computes a complete feasible schedule for the instance.
	Schedule(ctx context.Context, inst *core.Instance) (*core.Schedule, error)
}

// exactMarker matches the kernels that always return an optimal schedule for
// every instance they accept, and the adapters that wrap them.
type exactMarker interface{ IsExact() bool }

// adapted lifts a Kernel to the Solver interface.
type adapted struct {
	k Kernel
}

// Adapt wraps a Kernel as a Solver. Solve checks ctx once before it calls
// the kernel, whichever kernel it is; from then on only the kernel's own
// polling sees the context.
func Adapt(k Kernel) Solver { return &adapted{k: k} }

func (a *adapted) Name() string { return a.k.Name() }

// IsExact reports whether the underlying kernel is exact.
func (a *adapted) IsExact() bool {
	if e, ok := a.k.(exactMarker); ok {
		return e.IsExact()
	}
	return false
}

func (a *adapted) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, Stats, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, Stats{Solver: a.k.Name()}, err
	}
	// Fresh counters per solve: the kernels report explored nodes and
	// incumbents through the context, and the counts land in the returned
	// Stats (and from there in cached evaluations and telemetry). Any
	// counters already attached by an outer adapter are shadowed on purpose —
	// each adapter accounts exactly for its own solve.
	ctr := &progress.Counters{}
	ctx = progress.WithCounters(ctx, ctr)
	sched, err := a.k.Schedule(ctx, inst)
	st := Stats{
		Solver:       a.k.Name(),
		Winner:       a.k.Name(),
		Elapsed:      time.Since(start),
		Nodes:        ctr.Nodes.Load(),
		Incumbents:   ctr.Incumbents.Load(),
		KernelAllocs: ctr.Allocs.Load(),
	}
	if seed := ctr.WarmSeed.Load(); seed > 0 {
		st.WarmStart = true
		st.SeedMakespan = int(seed)
	}
	if err != nil {
		return nil, st, fmt.Errorf("%s: %w", a.k.Name(), err)
	}
	return sched, st, nil
}

// Evaluation bundles a schedule with the quantities the experiments, the
// examples and the served answers report about it, and the solve statistics.
type Evaluation struct {
	Algorithm  string
	Schedule   *core.Schedule
	Makespan   int
	LowerBound int
	Ratio      float64
	Properties core.Properties
	Wasted     float64
	Stats      Stats
}

// resultPool holds the Results that Evaluate and the portfolio members
// execute answers into: they keep only the makespan, the waste and the
// properties, so the execution's slabs serve the next answer.
var resultPool = sync.Pool{New: func() any { return new(core.Result) }}

// Evaluate runs the solver on the instance under the context, executes the
// resulting schedule and returns the evaluation. It fails if the solver errs,
// the schedule is infeasible, or it does not finish all jobs.
func Evaluate(ctx context.Context, s Solver, inst *core.Instance) (*Evaluation, error) {
	sched, st, err := s.Solve(ctx, inst)
	if err != nil {
		return nil, err
	}
	res := resultPool.Get().(*core.Result)
	defer resultPool.Put(res)
	if _, err := core.ExecuteInto(res, inst, sched); err != nil {
		return nil, fmt.Errorf("%s: produced invalid schedule: %w", s.Name(), err)
	}
	if !res.Finished() {
		return nil, fmt.Errorf("%s: schedule does not finish all jobs", s.Name())
	}
	lb := core.LowerBounds(inst).Best()
	ev := &Evaluation{
		Algorithm:  s.Name(),
		Schedule:   sched,
		Makespan:   res.Makespan(),
		LowerBound: lb,
		Properties: core.CheckProperties(res),
		Wasted:     res.Wasted(),
		Stats:      st,
	}
	if ev.Stats.Winner != "" && ev.Stats.Winner != s.Name() {
		ev.Algorithm = fmt.Sprintf("%s (via %s)", ev.Stats.Winner, s.Name())
	}
	if lb > 0 {
		ev.Ratio = float64(ev.Makespan) / float64(lb)
	} else {
		ev.Ratio = 1
	}
	return ev, nil
}
