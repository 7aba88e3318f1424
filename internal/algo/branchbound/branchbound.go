// Package branchbound provides an exact branch-and-bound solver for the
// CRSharing problem with unit size jobs. It explores the same non-wasting,
// progressive move space as the paper's exact algorithms (packages optres2
// and optresm) but prunes with the Observation-1 work bound, the per-processor
// chain bound and an incumbent obtained from GreedyBalance. It is not part of
// the paper; it exists as a practically faster exact solver for mid-size
// instances. Its moves come from package moves, the enumerator optresm also
// expands with, so the test suite's optimum oracles independent of that code
// are package bruteforce and the m=2 dynamic program of package optres2.
//
// The solver runs on pooled scratch memory (see scratch.go): one level per
// search depth holds the state reached there, the moves from it as compact
// descriptors visited in the enumerator's move order (more finished jobs
// first), and the allocation row of the move taken, and each child is
// derived into the next level only when the search descends into it. The
// visited set is an open-addressing table over a byte arena, so a
// steady-state solve allocates nothing per node. States that differ only by
// permuting processors with identical job sequences share one canonical
// visited key (symmetry breaking), which collapses the symmetric copies of
// every subtree. An incumbent that meets the root's lower bound is optimal,
// and the search stops there.
package branchbound

import (
	"context"
	"errors"
	"fmt"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/moves"
	"crsharing/internal/core"
	"crsharing/internal/numeric"
	"crsharing/internal/progress"
)

// Scheduler is the exact branch-and-bound solver.
type Scheduler struct {
	// MaxNodes caps the number of explored search nodes (0 = DefaultMaxNodes).
	MaxNodes int
	name     string // "" = "branch-and-bound"
}

// DefaultMaxNodes bounds the search so that pathological instances fail fast
// instead of hanging.
const DefaultMaxNodes = 20_000_000

// MaxProcessors bounds the supported processor count: the successor
// enumerator's bound (see moves.MaxProcessors). Beyond it Schedule
// returns an error instead of exhausting memory.
const MaxProcessors = moves.MaxProcessors

// checkSupported rejects instances the search cannot handle.
func checkSupported(inst *core.Instance) error {
	if !inst.IsUnitSize() {
		return fmt.Errorf("branchbound: requires unit size jobs")
	}
	if m := inst.NumProcessors(); m > MaxProcessors {
		return fmt.Errorf("branchbound: %d processors exceeds the supported maximum of %d", m, MaxProcessors)
	}
	return nil
}

// New returns a branch-and-bound solver with default limits.
func New() *Scheduler { return &Scheduler{} }

// NewParallel returns the same solver under the name
// "branch-and-bound-parallel", which the default portfolio's seventh member
// and the serving benchmark's win-share metric still carry. The search is
// the one serial kernel; only Name and the incumbent reports differ.
func NewParallel() *Scheduler { return &Scheduler{name: "branch-and-bound-parallel"} }

// Name returns "branch-and-bound", or the name NewParallel gave it.
func (s *Scheduler) Name() string {
	if s.name != "" {
		return s.name
	}
	return "branch-and-bound"
}

// IsExact marks the scheduler as exact.
func (s *Scheduler) IsExact() bool { return true }

type solver struct {
	ctx       context.Context
	inst      *core.Instance
	name      string
	sc        *searchScratch
	best      int         // incumbent makespan
	bestMoves [][]float64 // allocation rows of the incumbent (the seed's own rows, overwritten on improvement)
	rootLB    int         // lowerBound of the root state
	nodes     int
	maxNodes  int
}

// errOptimal unwinds the search once an incumbent meets the root's lower
// bound: no schedule can be shorter, so nothing left on the stack can
// replace it. Schedule turns it into success.
var errOptimal = errors.New("branchbound: incumbent meets the root bound")

// acceptWarmStart resolves the warm-start hint attached to ctx: when the hint
// validates against inst and its executed makespan strictly beats the greedy
// seed, a non-wasting projection of the hint and its makespan are returned
// and the caller installs them as the initial incumbent — exactly the role
// the greedy schedule plays on a cold solve, just with a tighter bound from
// step one. A warm start therefore never changes the optimal makespan or the
// (zero) waste the search returns; it can only change *which* optimal
// schedule comes back, in the one case where the hint already ties the
// optimum and no strictly better completion exists to replace it. Hints are
// untrusted: their makespan is derived by executing them against inst, never
// taken from the caller, and anything infeasible, unfinished, built for a
// different instance, or no better than the greedy seed is dropped — the
// solve then proceeds cold, byte-for-byte identical to a run with no hint at
// all.
//
// Both executions run on res, which the caller owns and reuses.
func acceptWarmStart(ctx context.Context, inst *core.Instance, greedyMakespan int, res *core.Result) (*core.Schedule, int) {
	h := progress.WarmStartFrom(ctx)
	if h == nil {
		return nil, 0
	}
	if _, err := core.ExecuteInto(res, inst, h); err != nil || !res.Finished() {
		return nil, 0
	}
	hm := res.Makespan()
	if hm >= greedyMakespan {
		return nil, 0
	}
	repaired := nonWasting(inst, h, res)
	if _, err := core.ExecuteInto(res, inst, repaired); err != nil || !res.Finished() || res.Makespan() != hm {
		return nil, 0
	}
	progress.SetWarmSeed(ctx, int64(hm))
	return repaired, hm
}

// nonWasting projects a validated hint onto the kernel's non-wasting move
// space: every share is capped at the progress it actually buys (the active
// job's requirement and its remaining work), and shares on idle processors
// or zero-requirement jobs are dropped. The projection never changes any
// job's progress, so completions and makespan are preserved — but the
// installed incumbent now carries zero waste, exactly like every schedule
// the search itself enumerates, and the warm solve's result metrics match a
// cold solve's whichever of the two ends up returned.
func nonWasting(inst *core.Instance, hint *core.Schedule, res *core.Result) *core.Schedule {
	m := inst.NumProcessors()
	out := core.NewSchedule(res.Makespan(), m)
	for t := 0; t < res.Makespan(); t++ {
		for i := 0; i < m; i++ {
			j, ok := res.ActiveJob(t, i)
			if !ok {
				continue
			}
			req := inst.Job(i, j).Req
			if req <= numeric.Eps {
				continue
			}
			share := hint.Share(t, i)
			if share > req {
				share = req
			}
			if rw := res.RemainingWork(t, i); share > rw {
				share = rw
			}
			out.Alloc[t][i] = share
		}
	}
	return out
}

// ctxCheckMask controls how often the search polls the context: every
// ctxCheckMask+1 explored nodes. It must be a power of two minus one.
const ctxCheckMask = 255

// Schedule searches for an optimal schedule. The search polls ctx every few
// hundred nodes and returns ctx.Err() promptly once it is cancelled or its
// deadline passes.
func (s *Scheduler) Schedule(ctx context.Context, inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := checkSupported(inst); err != nil {
		return nil, err
	}
	if inst.TotalJobs() == 0 {
		return &core.Schedule{}, nil
	}

	// The seed is the first incumbent: the GreedyBalance schedule (a
	// (2-1/m)-approximation, Theorem 7), or the warm-start hint attached to
	// ctx when acceptWarmStart takes it. It sets the upper bound and
	// guarantees a feasible answer. The greedy seed is built on the
	// scratch's builder and the hint is a copy owned by this solve; either
	// way the search overwrites the seed's rows as the incumbent improves,
	// and every execution runs on the scratch's Result.
	sc := getScratch(inst)
	defer putScratch(sc)
	sc.builder.Reset(inst)
	seed := greedybalance.New().Build(&sc.builder)
	res, err := core.ExecuteInto(&sc.res, inst, seed)
	if err != nil {
		return nil, err
	}
	if !res.Finished() {
		return nil, fmt.Errorf("branchbound: internal error: incumbent schedule incomplete")
	}
	seedMakespan := res.Makespan()
	warm := false
	if hint, hm := acceptWarmStart(ctx, inst, seedMakespan, &sc.res); hint != nil {
		seed, seedMakespan, warm = hint, hm, true
	}
	root := sc.levels[0]
	sv := &solver{
		ctx:       ctx,
		inst:      inst,
		name:      s.Name(),
		sc:        sc,
		best:      seedMakespan,
		bestMoves: seed.Alloc,
		rootLB:    lowerBound(inst, sc.suffix, root.done, root.rem),
		maxNodes:  s.MaxNodes,
	}
	if sv.maxNodes <= 0 {
		sv.maxNodes = DefaultMaxNodes
	}
	// Report the seed so observers see a feasible bound even before the
	// search improves on it.
	progress.Report(ctx, progress.Incumbent{Solver: sv.name, Makespan: sv.best})

	err = sv.search(0)
	progress.AddNodes(ctx, int64(sv.nodes))
	progress.AddAllocs(ctx, sc.allocs)
	if err != nil && !errors.Is(err, errOptimal) {
		return nil, err
	}
	switch {
	case sv.best < seedMakespan:
		// The improved incumbent lives in the first best rows of the seed's;
		// copy it out to an exact-size schedule so the answer pins none of
		// the seed's longer rows.
		sched := core.NewSchedule(sv.best, inst.NumProcessors())
		for t := range sched.Alloc {
			copy(sched.Alloc[t], sv.bestMoves[t])
		}
		return sched, nil
	case warm:
		return seed, nil // never improved: the hint's projection is the answer
	default:
		return seed.Clone(), nil // never improved: copy the greedy seed out of the scratch
	}
}

// suffixWork caches, per processor, the total work of every job suffix:
// suffixWork[i][k] = Σ_{j ≥ k} work(i, j). Each scratch computes it when it
// is prepared for an instance, so the bound below runs in O(m) per search
// node instead of re-walking every remaining job.
type suffixWork [][]float64

// lowerBound returns a lower bound on the number of additional steps needed
// from the state (done, rem): the maximum of the remaining chain length and
// the ceiling of the remaining aggregate work (read off the precomputed
// suffix table).
func lowerBound(inst *core.Instance, suffix suffixWork, done []int, rem []float64) int {
	chain := 0
	var workSum float64
	for i := 0; i < inst.NumProcessors(); i++ {
		remaining := inst.NumJobs(i) - done[i]
		if remaining > chain {
			chain = remaining
		}
		if remaining > 0 {
			workSum += rem[i] + suffix[i][done[i]+1]
		}
	}
	workBound := numeric.CeilTol(workSum)
	if workBound > chain {
		return workBound
	}
	return chain
}

// search explores the state of the given depth's level. Each successor is
// derived into the next level just before the search descends into it, so
// a successor the search never reaches is never written; the alloc rows of
// the levels above are the path so far.
func (sv *solver) search(depth int) error {
	sv.nodes++
	if sv.nodes > sv.maxNodes {
		return fmt.Errorf("branchbound: node limit of %d exceeded", sv.maxNodes)
	}
	if sv.nodes&ctxCheckMask == 0 {
		select {
		case <-sv.ctx.Done():
			return sv.ctx.Err()
		default:
		}
	}
	lv := sv.sc.levels[depth]
	done, rem := lv.done, lv.rem
	finished := true
	for i := range done {
		if done[i] < sv.inst.NumJobs(i) {
			finished = false
			break
		}
	}
	if finished {
		if depth < sv.best {
			sv.best = depth
			sv.copyIncumbent(depth)
			progress.Report(sv.ctx, progress.Incumbent{Solver: sv.name, Makespan: depth})
			if depth <= sv.rootLB {
				// The root cut's own test: an incumbent this short is optimal.
				return errOptimal
			}
		}
		return nil
	}
	if b := depth + lowerBound(sv.inst, sv.sc.suffix, done, rem); b >= sv.best {
		// Classic incumbent cut. A warm start needs no clause of its own: an
		// accepted hint was installed as the initial incumbent, so its bound
		// prunes here from the very first node.
		return nil
	}
	if sv.sc.visited.visit(sv.sc.stateKey(done, rem), depth, &sv.sc.allocs) {
		return nil // reached the same state (up to symmetry) at least as early before
	}

	moves.Expand(sv.inst, &sv.sc.expand, done, rem, &lv.moves, &sv.sc.allocs)
	next := sv.sc.level(depth + 1)
	for _, i := range lv.moves.Order() {
		lv.moves.Derive(sv.inst, i, next.done, next.rem, lv.alloc)
		if err := sv.search(depth + 1); err != nil {
			return err
		}
	}
	return nil
}

// copyIncumbent copies the alloc rows of levels 0..depth-1, the path to the
// finished state, into bestMoves. The incumbent only ever shrinks (depth <
// sv.best before every call), so the rows of the seed are reused and the
// copy allocates nothing.
func (sv *solver) copyIncumbent(depth int) {
	sv.bestMoves = sv.bestMoves[:depth]
	for t := 0; t < depth; t++ {
		copy(sv.bestMoves[t], sv.sc.levels[t].alloc)
	}
}
