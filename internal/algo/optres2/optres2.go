// Package optres2 implements OptResAssignment (Algorithm 1 of the paper): an
// exact O(n²) dynamic program for the CRSharing problem with unit size jobs
// on exactly two processors (Theorem 5). It also provides the priority-queue
// variant discussed after Theorem 5, which explores only reachable index
// pairs and is faster on many instances.
//
// The dynamic program fills a table indexed by the pair (a, b) of jobs
// already completed on each processor. Each cell stores the earliest time t
// at which that state is reachable and, for this t, the minimum possible sum
// r of the remaining resource requirements of the two active jobs. By
// Lemma 3 these two values are sufficient to compare sub-schedules, because
// every transition of a non-wasting, progressive, nested schedule depends
// only on the sum r:
//
//   - if r ≤ 1, both active jobs are finished in one step;
//   - if r > 1, exactly one active job is finished and the leftover 1 − r_fin
//     flows into the other active job, leaving it with remaining r − 1.
package optres2

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// Scheduler is the exact two-processor dynamic program.
type Scheduler struct {
	// UsePriorityQueue selects the priority-queue variant instead of the
	// dense diagonal sweep.
	UsePriorityQueue bool
}

// New returns the dense (array-based) OptResAssignment scheduler.
func New() *Scheduler { return &Scheduler{} }

// NewPQ returns the priority-queue variant.
func NewPQ() *Scheduler { return &Scheduler{UsePriorityQueue: true} }

// Name returns "opt-res-assignment" for both variants: they compute the same
// optimum.
func (s *Scheduler) Name() string { return "opt-res-assignment" }

// IsExact marks the scheduler as exact.
func (s *Scheduler) IsExact() bool { return true }

// move encodes how a cell was reached from its predecessor.
type move uint8

const (
	moveNone  move = iota
	moveBoth       // both active jobs finished (r ≤ 1)
	moveFin1       // job on processor 1 finished, leftover into processor 2
	moveFin2       // job on processor 2 finished, leftover into processor 1
	moveOnly1      // only processor 1 active (processor 2 exhausted)
	moveOnly2      // only processor 2 active (processor 1 exhausted)
)

// cell is one DP table entry.
type cell struct {
	t       int     // earliest completion time of the prefix
	r       float64 // minimal remaining-requirement sum at that time
	reached bool
	from    move
}

// better reports whether (t, r) improves on the cell per Lemma 3's dominance:
// smaller time first, then smaller remaining sum.
func (c *cell) better(t int, r float64) bool {
	if !c.reached {
		return true
	}
	if t != c.t {
		return t < c.t
	}
	return numeric.Less(r, c.r)
}

// Schedule solves the dynamic program and reconstructs an optimal schedule;
// it never looks at the context.
func (s *Scheduler) Schedule(_ context.Context, inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.NumProcessors() != 2 {
		return nil, fmt.Errorf("optres2: requires exactly 2 processors, got %d", inst.NumProcessors())
	}
	if !inst.IsUnitSize() {
		return nil, fmt.Errorf("optres2: requires unit size jobs")
	}
	moves, err := s.solve(inst)
	if err != nil {
		return nil, err
	}
	return reconstruct(inst, moves), nil
}

// Makespan returns only the optimal makespan without reconstructing a
// schedule; it is used by scaling benchmarks.
func (s *Scheduler) Makespan(inst *core.Instance) (int, error) {
	if inst.NumProcessors() != 2 {
		return 0, fmt.Errorf("optres2: requires exactly 2 processors, got %d", inst.NumProcessors())
	}
	if !inst.IsUnitSize() {
		return 0, fmt.Errorf("optres2: requires unit size jobs")
	}
	moves, err := s.solve(inst)
	if err != nil {
		return 0, err
	}
	return len(moves), nil
}

// solve returns the optimal move sequence (one move per time step).
func (s *Scheduler) solve(inst *core.Instance) ([]move, error) {
	if s.UsePriorityQueue {
		return solvePQ(inst)
	}
	return solveDense(inst)
}

// work returns the remaining-work contribution of the next unfinished job on
// processor p when a jobs are already done (0 if the processor is exhausted).
// A job whose requirement is at most numeric.Eps contributes 0: core.Execute
// runs it at full speed on no share, so a share the table reserved for it
// would only be taken from the other processor's job.
func work(inst *core.Instance, p, done int) float64 {
	if done >= inst.NumJobs(p) {
		return 0
	}
	j := inst.Job(p, done)
	if j.Req <= numeric.Eps {
		return 0
	}
	return j.Work()
}

// solveDense is the textbook diagonal sweep over the full (n1+1)×(n2+1)
// table, matching Algorithm 1.
func solveDense(inst *core.Instance) ([]move, error) {
	n1, n2 := inst.NumJobs(0), inst.NumJobs(1)
	cells := make([][]cell, n1+1)
	for a := range cells {
		cells[a] = make([]cell, n2+1)
	}
	cells[0][0] = cell{t: 0, r: work(inst, 0, 0) + work(inst, 1, 0), reached: true, from: moveNone}

	relax := func(a, b, t int, r float64, mv move) {
		if cells[a][b].better(t, r) {
			cells[a][b] = cell{t: t, r: r, reached: true, from: mv}
		}
	}

	for diag := 0; diag <= n1+n2; diag++ {
		for a := max(0, diag-n2); a <= min(diag, n1); a++ {
			b := diag - a
			c := cells[a][b]
			if !c.reached {
				continue
			}
			expand(inst, a, b, c, relax)
		}
	}

	final := cells[n1][n2]
	if !final.reached {
		return nil, fmt.Errorf("optres2: internal error: final state unreachable")
	}
	// Walk the predecessors back to (0,0).
	return backtrack(inst, func(a, b int) (move, int) {
		return cells[a][b].from, cells[a][b].t
	}, n1, n2, final.t), nil
}

// expand generates all successor states of cell (a, b) and calls relax for
// each. It encodes the transition rules described in the package comment.
func expand(inst *core.Instance, a, b int, c cell, relax func(a, b, t int, r float64, mv move)) {
	n1, n2 := inst.NumJobs(0), inst.NumJobs(1)
	active1, active2 := a < n1, b < n2
	switch {
	case !active1 && !active2:
		// Final state: nothing to expand.
	case active1 && !active2:
		relax(a+1, b, c.t+1, work(inst, 0, a+1), moveOnly1)
	case !active1 && active2:
		relax(a, b+1, c.t+1, work(inst, 1, b+1), moveOnly2)
	default:
		if numeric.Leq(c.r, 1) {
			relax(a+1, b+1, c.t+1, work(inst, 0, a+1)+work(inst, 1, b+1), moveBoth)
		} else {
			carry := c.r - 1
			relax(a+1, b, c.t+1, work(inst, 0, a+1)+carry, moveFin1)
			relax(a, b+1, c.t+1, carry+work(inst, 1, b+1), moveFin2)
		}
	}
}

// backtrack reconstructs the move sequence from the stored predecessors.
func backtrack(inst *core.Instance, at func(a, b int) (move, int), n1, n2, makespan int) []move {
	moves := make([]move, makespan)
	a, b := n1, n2
	for a > 0 || b > 0 {
		mv, t := at(a, b)
		moves[t-1] = mv
		switch mv {
		case moveBoth:
			a, b = a-1, b-1
		case moveFin1, moveOnly1:
			a = a - 1
		case moveFin2, moveOnly2:
			b = b - 1
		default:
			// moveNone can only label the origin; reaching it here would be a
			// broken table.
			panic("optres2: broken predecessor chain")
		}
	}
	return moves
}

// pqItem is one heap entry of the priority-queue variant.
type pqItem struct {
	a, b int
	t    int
	r    float64
	from move
}

type pq []pqItem

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	di, dj := q[i].a+q[i].b, q[j].a+q[j].b
	if di != dj {
		return di < dj
	}
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].r < q[j].r
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// solvePQ is the sparse variant: states are explored in order of their index
// sum, so a cell's first finalisation is optimal, and index pairs that are
// never reached are never touched.
func solvePQ(inst *core.Instance) ([]move, error) {
	n1, n2 := inst.NumJobs(0), inst.NumJobs(1)
	type key struct{ a, b int }
	best := make(map[key]cell)

	q := &pq{}
	heap.Init(q)
	start := cell{t: 0, r: work(inst, 0, 0) + work(inst, 1, 0), reached: true, from: moveNone}
	best[key{0, 0}] = start
	expand(inst, 0, 0, start, func(a, b, t int, r float64, mv move) {
		heap.Push(q, pqItem{a: a, b: b, t: t, r: r, from: mv})
	})

	for q.Len() > 0 {
		item := heap.Pop(q).(pqItem)
		k := key{item.a, item.b}
		if _, done := best[k]; done {
			// Items pop in order of their index sum, and within a diagonal in
			// lexicographic (t, r) order, so the first pop of a cell carries
			// its optimal value; later pops are stale.
			continue
		}
		c := cell{t: item.t, r: item.r, reached: true, from: item.from}
		best[k] = c
		if item.a == n1 && item.b == n2 {
			return backtrack(inst, func(a, b int) (move, int) {
				cc := best[key{a, b}]
				return cc.from, cc.t
			}, n1, n2, c.t), nil
		}
		expand(inst, item.a, item.b, c, func(a, b, t int, r float64, mv move) {
			heap.Push(q, pqItem{a: a, b: b, t: t, r: r, from: mv})
		})
	}
	// The start state may already be final (no jobs at all).
	if n1 == 0 && n2 == 0 {
		return nil, nil
	}
	return nil, fmt.Errorf("optres2: internal error: final state unreachable")
}

// reconstruct replays the move sequence to obtain the explicit per-step
// resource allocation.
func reconstruct(inst *core.Instance, moves []move) *core.Schedule {
	sched := core.NewSchedule(len(moves), 2)
	rem1, rem2 := work(inst, 0, 0), work(inst, 1, 0)
	a, b := 0, 0
	for t, mv := range moves {
		var r1, r2 float64
		switch mv {
		case moveBoth:
			r1, r2 = rem1, rem2
			a, b = a+1, b+1
			rem1, rem2 = work(inst, 0, a), work(inst, 1, b)
		case moveFin1:
			r1 = rem1
			r2 = 1 - rem1
			rem2 = math.Max(0, rem2-r2)
			a = a + 1
			rem1 = work(inst, 0, a)
		case moveFin2:
			r2 = rem2
			r1 = 1 - rem2
			rem1 = math.Max(0, rem1-r1)
			b = b + 1
			rem2 = work(inst, 1, b)
		case moveOnly1:
			r1 = rem1
			a = a + 1
			rem1 = work(inst, 0, a)
		case moveOnly2:
			r2 = rem2
			b = b + 1
			rem2 = work(inst, 1, b)
		}
		// Guard against floating-point drift: never exceed the capacity.
		if r1+r2 > 1 {
			excess := r1 + r2 - 1
			if r2 >= excess {
				r2 -= excess
			} else {
				r1 -= excess - r2
				r2 = 0
			}
		}
		sched.Alloc[t][0] = r1
		sched.Alloc[t][1] = r2
	}
	return sched
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
