package branchbound

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"crsharing/internal/algo/moves"
	"crsharing/internal/core"
	"crsharing/internal/progress"
)

// ParallelScheduler is the multi-core variant of the exact branch-and-bound
// solver. It expands the root into a frontier of independent subtrees and
// explores them on a pool of workers that share a single atomic incumbent
// bound, so a good solution found by any worker immediately tightens the
// pruning of every other. Work is distributed through a bounded queue:
// workers offload one successor subtree whenever the queue has room and
// otherwise recurse locally, which keeps all cores busy without unbounded
// task inflation. Each worker searches on its own pooled scratch (path
// stack, successor buffers, visited table), so steady-state exploration
// allocates only when a subtree is handed off.
type ParallelScheduler struct {
	// Workers is the pool size (0 = GOMAXPROCS).
	Workers int
	// MaxNodes caps the total nodes explored across all workers
	// (0 = DefaultMaxNodes).
	MaxNodes int
}

// NewParallel returns a parallel branch-and-bound solver with default limits.
func NewParallel() *ParallelScheduler { return &ParallelScheduler{} }

// Name implements algo.Scheduler.
func (s *ParallelScheduler) Name() string { return "branch-and-bound-parallel" }

// IsExact marks the scheduler as exact.
func (s *ParallelScheduler) IsExact() bool { return true }

// Schedule implements algo.Scheduler.
func (s *ParallelScheduler) Schedule(inst *core.Instance) (*core.Schedule, error) {
	return s.ScheduleContext(context.Background(), inst)
}

// task is one independent subtree: a state plus the path that reached it.
// Every slice is owned by the task — rows are deep copies, never aliases of
// a worker's scratch — so tasks can cross goroutines safely.
type task struct {
	done  []int
	rem   []float64
	depth int
	moves [][]float64
}

// newTask deep-copies a successor state and the path that reached it —
// the rows of path followed by last — into a task. The remaining work and
// every row share one float backing, so a task costs three allocations
// however deep it starts.
func newTask(done []int, rem []float64, path [][]float64, last []float64) task {
	m := len(rem)
	depth := len(path)
	floats := make([]float64, m*(depth+2))
	t := task{
		done:  append([]int(nil), done...),
		rem:   floats[:m:m],
		depth: depth + 1,
		moves: make([][]float64, depth+1),
	}
	copy(t.rem, rem)
	for d := range t.moves {
		row := floats[m*(d+1) : m*(d+2) : m*(d+2)]
		if d < depth {
			copy(row, path[d])
		} else {
			copy(row, last)
		}
		t.moves[d] = row
	}
	return t
}

// shared is the state visible to every worker.
type shared struct {
	inst     *core.Instance
	name     string
	best     atomic.Int64 // incumbent makespan
	nodes    atomic.Int64 // total explored nodes
	allocs   atomic.Int64 // scratch-growth and handoff allocation events
	maxNodes int64

	seed         *core.Schedule // the first incumbent, owned by the solve
	seedMakespan int

	mu        sync.Mutex  // guards bestMoves
	bestMoves [][]float64 // allocation rows of the incumbent (the seed's own rows, overwritten on improvement)

	queue     chan task
	hungry    int          // offload watermark: hand off only when len(queue) is below it
	pending   atomic.Int64 // queued + in-flight tasks
	closeOnce sync.Once

	failed  atomic.Bool
	failMu  sync.Mutex
	failErr error
}

var errNodeLimit = errors.New("node limit exceeded")

// ScheduleContext computes an optimal schedule, polling ctx cooperatively in
// every worker so cancellation and deadlines take effect promptly.
func (s *ParallelScheduler) ScheduleContext(ctx context.Context, inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := checkSupported(inst); err != nil {
		return nil, err
	}
	if inst.TotalJobs() == 0 {
		return &core.Schedule{}, nil
	}

	// Incumbent: the seed of the serial solver.
	seedSc := getScratch(inst)
	seed, seedMakespan, err := seedSearch(ctx, inst, seedSc)
	if err != nil {
		putScratch(seedSc)
		return nil, err
	}

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sh := &shared{
		inst:         inst,
		name:         s.Name(),
		seed:         seed,
		seedMakespan: seedMakespan,
		bestMoves:    seed.Alloc,
		maxNodes:     int64(s.MaxNodes),
	}
	if sh.maxNodes <= 0 {
		sh.maxNodes = DefaultMaxNodes
	}
	sh.best.Store(int64(seedMakespan))
	// The seed — greedy, or the warm-start hint when one was accepted — is the
	// first incumbent: report it so observers see a feasible bound even before
	// the search improves on it.
	progress.Report(ctx, progress.Incumbent{Solver: s.Name(), Makespan: int(sh.best.Load())})

	// Seed the frontier breadth-first until there is enough fan-out to keep
	// the pool busy. Small instances may be solved entirely during seeding;
	// seeded expansions count as explored nodes so telemetry stays non-zero
	// even then.
	frontier := []task{{
		done: append([]int(nil), seedSc.rootDone...),
		rem:  append([]float64(nil), seedSc.rootRem...),
	}}
	var seeded int64
	for len(frontier) > 0 && len(frontier) < workers*4 {
		t := frontier[0]
		frontier = frontier[1:]
		seeded++
		if isFinished(inst, t.done) {
			sh.offerSolution(ctx, t.depth, t.moves)
			continue
		}
		if b := t.depth + lowerBound(inst, seedSc.suffix, t.done, t.rem); int64(b) >= sh.best.Load() {
			continue
		}
		buf := seedSc.level(0)
		moves.Expand(inst, &seedSc.expand, t.done, t.rem, buf, &seedSc.allocs)
		for _, i := range buf.Order() {
			// Each seeded task is a deep copy, counted like a worker handoff.
			frontier = append(frontier, newTask(buf.DoneRow(i), buf.RemRow(i), t.moves, buf.AllocRow(i)))
			seedSc.allocs++
		}
	}
	sh.allocs.Add(seedSc.allocs)
	putScratch(seedSc)
	if len(frontier) == 0 {
		progress.AddNodes(ctx, seeded)
		progress.AddAllocs(ctx, sh.allocs.Load())
		return sh.schedule(), nil
	}

	sh.queue = make(chan task, len(frontier)+workers*64)
	sh.hungry = workers * 2
	sh.pending.Store(int64(len(frontier)))
	for _, t := range frontier {
		sh.queue <- t
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.worker(ctx)
		}()
	}
	wg.Wait()
	progress.AddNodes(ctx, seeded+sh.nodes.Load())
	progress.AddAllocs(ctx, sh.allocs.Load())

	if sh.failed.Load() {
		sh.failMu.Lock()
		err := sh.failErr
		sh.failMu.Unlock()
		if errors.Is(err, errNodeLimit) {
			return nil, fmt.Errorf("branchbound: node limit of %d exceeded", sh.maxNodes)
		}
		return nil, err
	}
	return sh.schedule(), nil
}

// Makespan returns the optimal makespan.
func (s *ParallelScheduler) Makespan(inst *core.Instance) (int, error) {
	sched, err := s.Schedule(inst)
	if err != nil {
		return 0, err
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		return 0, err
	}
	if !res.Finished() {
		return 0, fmt.Errorf("branchbound: internal error: result schedule incomplete")
	}
	return res.Makespan(), nil
}

func isFinished(inst *core.Instance, done []int) bool {
	for i := range done {
		if done[i] < inst.NumJobs(i) {
			return false
		}
	}
	return true
}

// offerSolution installs a complete schedule of the given makespan as the
// incumbent if it improves on the current one, reporting the improvement to
// the context's progress observer. The rows are copied under the lock, so
// callers may pass rows that alias their scratch.
func (sh *shared) offerSolution(ctx context.Context, depth int, moves [][]float64) {
	sh.mu.Lock()
	improved := int64(depth) < sh.best.Load()
	if improved {
		sh.best.Store(int64(depth))
		// The incumbent only ever shrinks (the seed's rows are the
		// longest), so truncate and reuse the existing rows.
		sh.bestMoves = sh.bestMoves[:depth]
		for t := 0; t < depth; t++ {
			copy(sh.bestMoves[t], moves[t])
		}
	}
	sh.mu.Unlock()
	if improved {
		progress.Report(ctx, progress.Incumbent{Solver: sh.name, Makespan: depth})
	}
}

// schedule materialises the incumbent (see finish).
func (sh *shared) schedule() *core.Schedule {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return finish(sh.seed, sh.seedMakespan, int(sh.best.Load()), sh.bestMoves, sh.inst.NumProcessors())
}

// fail records the first error; later errors are dropped. Once failed, every
// worker skips the tasks it drains so the queue empties quickly.
func (sh *shared) fail(err error) {
	if sh.failed.CompareAndSwap(false, true) {
		sh.failMu.Lock()
		sh.failErr = err
		sh.failMu.Unlock()
	}
}

// worker drains tasks until the queue closes. Every drained task is counted
// against pending even when it is skipped after a failure, so the queue is
// guaranteed to close and no goroutine is left behind. The worker's visited
// table persists across the tasks it drains, exactly like the per-worker
// map it replaces.
func (sh *shared) worker(ctx context.Context) {
	sc := getScratch(sh.inst)
	for t := range sh.queue {
		if !sh.failed.Load() {
			for d, row := range t.moves {
				sc.pathRow(d, row)
			}
			if err := sh.dfs(ctx, sc, t.done, t.rem, t.depth); err != nil {
				sh.fail(err)
			}
		}
		if sh.pending.Add(-1) == 0 {
			sh.closeOnce.Do(func() { close(sh.queue) })
		}
	}
	sh.allocs.Add(sc.allocs)
	putScratch(sc)
}

// dfs explores one subtree depth-first against the shared incumbent bound,
// offloading at most one successor per node into the queue when it has room.
func (sh *shared) dfs(ctx context.Context, sc *searchScratch, done []int, rem []float64, depth int) error {
	n := sh.nodes.Add(1)
	if n > sh.maxNodes {
		return errNodeLimit
	}
	if n&ctxCheckMask == 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	if isFinished(sh.inst, done) {
		sh.offerSolution(ctx, depth, sc.path[:depth])
		return nil
	}
	if b := depth + lowerBound(sh.inst, sc.suffix, done, rem); int64(b) >= sh.best.Load() {
		// Incumbent cut; an accepted warm start was installed as the initial
		// incumbent, so its bound is already part of best (see the serial
		// solver).
		return nil
	}
	if sc.visited.visit(sc.stateKey(done, rem), depth, &sc.allocs) {
		return nil
	}

	buf := sc.level(depth)
	moves.Expand(sh.inst, &sc.expand, done, rem, buf, &sc.allocs)
	for oi, i := range buf.Order() {
		// Keep the most promising successor (order index 0) local; offer the
		// rest to idle workers, but only while the queue is close to empty —
		// a handoff deep-copies the whole path, so once every worker has
		// work queued, local recursion (which allocates nothing) is cheaper
		// than feeding an already-full queue.
		if oi > 0 && len(sh.queue) < sh.hungry {
			sh.pending.Add(1)
			handoff := newTask(buf.DoneRow(i), buf.RemRow(i), sc.path[:depth], buf.AllocRow(i))
			sc.allocs++
			select {
			case sh.queue <- handoff:
				continue
			default:
				sh.pending.Add(-1)
			}
		}
		sc.pathRow(depth, buf.AllocRow(i))
		if err := sh.dfs(ctx, sc, buf.DoneRow(i), buf.RemRow(i), depth+1); err != nil {
			return err
		}
	}
	return nil
}
