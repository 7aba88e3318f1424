// Package progress carries solve-instrumentation hooks through contexts, so
// long-running solvers can stream improving solutions — and account for the
// search effort they spend — to whoever started them without the algo
// packages depending on the solver or serving layers.
//
// The package sits below internal/algo in the dependency order on purpose:
// internal/solver imports the algo packages, so a hook defined there could
// not be called from inside a kernel. A caller attaches an observer with
// WithObserver and a counter set with WithCounters; kernels call Report
// whenever they install a new best-so-far solution and AddNodes as they
// explore, both of which are no-ops when nothing is attached.
package progress

import (
	"context"
	"sync/atomic"

	"crsharing/internal/core"
)

// Incumbent is one improving solution found during a solve: the solver that
// produced it and its makespan. Reports are made whenever a kernel installs
// a new best-so-far solution, so a consumer sees a (not necessarily
// strictly) improving sequence ending in the final answer.
type Incumbent struct {
	// Solver names the solver that found the solution. Nested solvers (a
	// portfolio member, a branch-and-bound worker) report their own name.
	Solver string
	// Makespan is the solution's makespan in time steps.
	Makespan int
}

// Func observes incumbents. Implementations must be safe for concurrent
// use: portfolio members report from multiple goroutines, and must be fast —
// they run inline on the search path.
type Func func(Incumbent)

type ctxKey struct{}

type countersKey struct{}

// Counters accumulates the search effort of one solve. Kernels add to it
// through the context (AddNodes, Report); the solver adapters read it into
// solver.Stats when the solve returns. All fields are atomic: the members
// of a portfolio write from many goroutines.
type Counters struct {
	// Nodes counts explored search nodes (branch-and-bound) or generated
	// configurations (the enumeration algorithms). Heuristics leave it zero.
	Nodes atomic.Int64
	// Incumbents counts improving solutions reported through Report.
	Incumbents atomic.Int64
	// Allocs counts heap-allocation events the kernels performed on their
	// search hot path (scratch-arena growth, not every object): an
	// allocation-free steady state reports zero. Heuristics leave it zero.
	Allocs atomic.Int64
	// WarmSeed records the makespan of an accepted warm-start hint: a kernel
	// stores it when a hint attached with WithWarmStart validated against the
	// instance and tightened its pruning bound. Makespans are at least 1, so
	// a positive value doubles as the "a hint was used" flag. Portfolio
	// members may validate the same hint more than once; the last store wins
	// (all stores agree on the value).
	WarmSeed atomic.Int64
}

// WithObserver returns a context carrying fn as the incumbent observer.
// Attaching a nil observer returns ctx unchanged.
func WithObserver(ctx context.Context, fn Func) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, fn)
}

// WithCounters returns a context carrying c as the solve counter set.
// Attaching nil counters returns ctx unchanged.
func WithCounters(ctx context.Context, c *Counters) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, countersKey{}, c)
}

// CountersFrom returns the counter set attached to ctx, or nil.
func CountersFrom(ctx context.Context) *Counters {
	c, _ := ctx.Value(countersKey{}).(*Counters)
	return c
}

// AddNodes adds n explored nodes / configurations to the counters attached
// to ctx, if any. Kernels call it in batches (once per round, or once at the
// end of a subtree), not per node, to keep it off the hot path.
func AddNodes(ctx context.Context, n int64) {
	if c := CountersFrom(ctx); c != nil && n > 0 {
		c.Nodes.Add(n)
	}
}

// AddAllocs adds n kernel heap-allocation events to the counters attached to
// ctx, if any. Kernels report once per solve (the scratch tracks its own
// growth), so the call is off the hot path.
func AddAllocs(ctx context.Context, n int64) {
	if c := CountersFrom(ctx); c != nil && n > 0 {
		c.Allocs.Add(n)
	}
}

// Report delivers inc to the observer attached to ctx, if any, and counts it
// against the attached counters' incumbent tally.
func Report(ctx context.Context, inc Incumbent) {
	if c := CountersFrom(ctx); c != nil {
		c.Incumbents.Add(1)
	}
	if fn, ok := ctx.Value(ctxKey{}).(Func); ok {
		fn(inc)
	}
}

type warmStartKey struct{}

// WithWarmStart returns a context carrying hint for downstream exact and
// anytime kernels: a schedule believed feasible for the instance about to be
// solved, typically the caller's answer for a neighboring instance. Kernels
// must treat it as untrusted — validate it with core.Execute against their
// own instance, derive the makespan themselves, and ignore it entirely when
// it is infeasible, unfinished, or no better than their own seed. A hint may
// only tighten a kernel's pruning bound; it must never change the returned
// optimum, and it must never be mutated: portfolio members share it. Unlike counters, the hint is a plain context value, so
// solver adapters that shadow the counter set still pass it through.
// Attaching a nil hint returns ctx unchanged.
func WithWarmStart(ctx context.Context, hint *core.Schedule) context.Context {
	if hint == nil {
		return ctx
	}
	return context.WithValue(ctx, warmStartKey{}, hint)
}

// WarmStartFrom returns the warm-start hint attached to ctx, or nil.
func WarmStartFrom(ctx context.Context) *core.Schedule {
	h, _ := ctx.Value(warmStartKey{}).(*core.Schedule)
	return h
}

// SetWarmSeed records that a kernel accepted a warm-start hint with the given
// makespan against the counters attached to ctx, if any. Non-positive
// makespans are ignored (a makespan is at least 1 by construction).
func SetWarmSeed(ctx context.Context, makespan int64) {
	if c := CountersFrom(ctx); c != nil && makespan > 0 {
		c.WarmSeed.Store(makespan)
	}
}
