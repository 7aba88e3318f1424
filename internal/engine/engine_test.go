package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
	"crsharing/internal/solver"
)

// countingSolver tracks its concurrency high-water mark and optionally
// blocks until released or cancelled. Successful solves delegate to
// greedy-balance so the schedule is valid.
type countingSolver struct {
	name  string
	calls atomic.Int64
	cur   atomic.Int64
	max   atomic.Int64
	block chan struct{} // when non-nil, Solve waits for close or ctx
}

func (s *countingSolver) Name() string { return s.name }

func (s *countingSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	s.calls.Add(1)
	cur := s.cur.Add(1)
	defer s.cur.Add(-1)
	for {
		max := s.max.Load()
		if cur <= max || s.max.CompareAndSwap(max, cur) {
			break
		}
	}
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return nil, solver.Stats{Solver: s.name}, ctx.Err()
		}
	}
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	return sched, solver.Stats{Solver: s.name, Elapsed: time.Microsecond, Nodes: 7}, err
}

func newTestEngine(t *testing.T, stub solver.Solver, mutate func(*Config)) *Engine {
	t.Helper()
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return stub })
	cfg := Config{
		Registry:      reg,
		Cache:         solver.NewCache(4, 64),
		DefaultSolver: "stub",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// distinctInstances returns n instances with pairwise distinct fingerprints.
func distinctInstances(n int) []*core.Instance {
	insts := make([]*core.Instance, n)
	for i := range insts {
		insts[i] = core.NewInstance([]float64{float64(i+1) / float64(n+1), 0.5}, []float64{0.25})
	}
	return insts
}

func TestSolveSources(t *testing.T) {
	stub := &countingSolver{name: "stub"}
	eng := newTestEngine(t, stub, nil)
	inst := core.NewInstance([]float64{0.3, 0.7}, []float64{0.5})

	first, err := eng.Solve(context.Background(), Request{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != solver.SourceSolve {
		t.Fatalf("first solve source %q", first.Source)
	}
	if first.Telemetry.Source != string(solver.SourceSolve) || first.Telemetry.Nodes != 7 {
		t.Fatalf("fresh telemetry malformed: %+v", first.Telemetry)
	}
	if first.Fingerprint != inst.Fingerprint() {
		t.Fatal("result fingerprint does not match the instance")
	}
	if first.Telemetry.Makespan != first.Evaluation.Makespan || first.Telemetry.Steps <= 0 {
		t.Fatalf("telemetry/evaluation mismatch: %+v", first.Telemetry)
	}

	second, err := eng.Solve(context.Background(), Request{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != solver.SourceCache {
		t.Fatalf("repeat source %q, want cache", second.Source)
	}
	if second.Telemetry.Source != string(solver.SourceCache) || second.Telemetry.Nodes != 7 {
		t.Fatalf("cached telemetry malformed: %+v", second.Telemetry)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("solver invoked %d times for identical requests, want 1", got)
	}

	snap := eng.Snapshot()
	if snap.SourceSolve != 1 || snap.SourceCache != 1 || snap.NodesTotal != 7 {
		t.Fatalf("snapshot accounting wrong: %+v", snap)
	}
	if snap.SolveSeconds.Total() != 1 || snap.SolveNodes.Total() != 1 || snap.SolveNodes.Sum != 7 {
		t.Fatalf("histograms missed the fresh solve: %+v", snap)
	}
}

func TestSolveValidation(t *testing.T) {
	eng := newTestEngine(t, &countingSolver{name: "stub"}, nil)
	if _, err := eng.Solve(context.Background(), Request{}); err == nil {
		t.Error("missing instance accepted")
	}
	bad := core.NewInstance([]float64{1.5})
	if _, err := eng.Solve(context.Background(), Request{Instance: bad}); err == nil {
		t.Error("invalid instance accepted")
	}
	good := core.NewInstance([]float64{0.5})
	if _, err := eng.Solve(context.Background(), Request{Instance: good, Solver: "no-such"}); err == nil {
		t.Error("unknown solver accepted")
	}
}

func TestSolveDeadlineClamping(t *testing.T) {
	stub := &countingSolver{name: "stub", block: make(chan struct{})} // never released
	eng := newTestEngine(t, stub, func(cfg *Config) {
		cfg.DefaultTimeout = 50 * time.Millisecond
		cfg.MaxTimeout = 100 * time.Millisecond
	})
	inst := core.NewInstance([]float64{0.5})

	// No requested budget: the default applies.
	start := time.Now()
	_, err := eng.Solve(context.Background(), Request{Instance: inst})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("default deadline not applied")
	}

	// A budget above the ceiling is clamped to it.
	start = time.Now()
	_, err = eng.Solve(context.Background(), Request{Instance: inst, Timeout: time.Hour})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("MaxTimeout clamp not applied: waited %s", elapsed)
	}

	// Per-request limits override the engine's: the job surface passes its
	// own, larger ceilings.
	start = time.Now()
	_, err = eng.Solve(context.Background(), Request{
		Instance: inst,
		Timeout:  250 * time.Millisecond,
		Limits:   &Limits{Default: time.Second, Max: time.Second},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("request limits ignored: expired after %s under a 250ms budget", elapsed)
	}
}

func TestLimitsResolve(t *testing.T) {
	l := Limits{Default: 30 * time.Second, Max: 2 * time.Minute}
	cases := []struct {
		in, want time.Duration
	}{
		{0, 30 * time.Second},
		{time.Second, time.Second},
		{time.Hour, 2 * time.Minute},
	}
	for _, c := range cases {
		if got := l.Resolve(c.in); got != c.want {
			t.Errorf("Resolve(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestObserverAttachment(t *testing.T) {
	// A solver that reports incumbents through the context.
	reporting := solverFunc(func(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
		progress.Report(ctx, progress.Incumbent{Solver: "reporting", Makespan: 5})
		progress.Report(ctx, progress.Incumbent{Solver: "reporting", Makespan: 3})
		sched, err := greedybalance.New().Schedule(context.Background(), inst)
		return sched, solver.Stats{Solver: "reporting"}, err
	})
	reg := solver.NewRegistry()
	reg.Register("reporting", func() solver.Solver { return reporting })
	eng, err := New(Config{Registry: reg, DefaultSolver: "reporting"})
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	var mu sync.Mutex
	_, err = eng.Solve(context.Background(), Request{
		Instance: core.NewInstance([]float64{0.5}),
		Observer: func(inc progress.Incumbent) {
			mu.Lock()
			seen = append(seen, inc.Makespan)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 3 {
		t.Fatalf("observer saw %v, want [5 3]", seen)
	}
}

type solverFunc func(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error)

func (f solverFunc) Name() string { return "reporting" }
func (f solverFunc) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	return f(ctx, inst)
}

// TestAdmissionSharedAcrossSolveAndBatch is the admission-gap regression at
// the engine level: a saturating SolveEach batch and concurrent single
// solves all draw from the same semaphore, so the solver's concurrency
// high-water mark can never exceed MaxConcurrent.
func TestAdmissionSharedAcrossSolveAndBatch(t *testing.T) {
	const cap = 2
	stub := &countingSolver{name: "stub", block: make(chan struct{})}
	eng := newTestEngine(t, stub, func(cfg *Config) { cfg.MaxConcurrent = cap })

	batch := distinctInstances(6)
	singles := distinctInstances(9)[6:] // distinct from the batch

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		outcomes := eng.SolveEach(context.Background(), "", "", batch, len(batch))
		for _, out := range outcomes {
			if out.Err != nil {
				t.Errorf("batch outcome %d: %v", out.Index, out.Err)
			}
		}
	}()
	for _, inst := range singles {
		wg.Add(1)
		go func(inst *core.Instance) {
			defer wg.Done()
			if _, err := eng.Solve(context.Background(), Request{Instance: inst, Timeout: NoDeadline}); err != nil {
				t.Errorf("single solve: %v", err)
			}
		}(inst)
	}

	// Wait until the cap is reached, then hold a beat to catch overshoot.
	deadline := time.Now().Add(5 * time.Second)
	for stub.cur.Load() < cap && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(stub.block)
	wg.Wait()

	if got := stub.max.Load(); got != cap {
		t.Fatalf("solver concurrency high-water mark %d, want exactly the configured cap %d", got, cap)
	}
	if got := stub.calls.Load(); got != int64(len(batch)+len(singles)) {
		t.Fatalf("%d solves ran, want %d", got, len(batch)+len(singles))
	}
}

// TestAdmissionQueuedSolveNotStarved checks FIFO admission: a synchronous
// solve queued behind a saturating batch runs as soon as a slot frees
// instead of being starved by later batch shards.
func TestAdmissionQueuedSolveNotStarved(t *testing.T) {
	stub := &countingSolver{name: "stub", block: make(chan struct{})}
	eng := newTestEngine(t, stub, func(cfg *Config) { cfg.MaxConcurrent = 1 })

	// Saturate: one blocking solve holds the only slot.
	first := make(chan error, 1)
	insts := distinctInstances(2)
	go func() {
		_, err := eng.Solve(context.Background(), Request{Instance: insts[0], Timeout: NoDeadline})
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for stub.cur.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// The queued sync solve waits...
	second := make(chan error, 1)
	go func() {
		_, err := eng.Solve(context.Background(), Request{Instance: insts[1], Timeout: NoDeadline})
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("queued solve finished while the slot was held (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// ...and runs once the slot frees.
	close(stub.block)
	for _, ch := range []chan error{first, second} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("solve did not finish after the slot freed")
		}
	}
	if got := stub.max.Load(); got != 1 {
		t.Fatalf("concurrency high-water mark %d, want 1", got)
	}
}

// TestAdmissionRespectsDeadlineWhileQueued: a queued request whose budget
// expires leaves the admission queue with a deadline error instead of
// waiting forever.
func TestAdmissionRespectsDeadlineWhileQueued(t *testing.T) {
	stub := &countingSolver{name: "stub", block: make(chan struct{})}
	defer close(stub.block)
	eng := newTestEngine(t, stub, func(cfg *Config) { cfg.MaxConcurrent = 1 })
	insts := distinctInstances(2)

	done := make(chan error, 1)
	go func() {
		_, err := eng.Solve(context.Background(), Request{Instance: insts[0], Timeout: NoDeadline})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for stub.cur.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	_, err := eng.Solve(context.Background(), Request{Instance: insts[1], Timeout: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued solve err = %v, want deadline exceeded", err)
	}
	if eng.Snapshot().Waiting != 0 {
		t.Fatal("expired request still queued for admission")
	}
}

// TestSolveEachSkipsAfterCancellation mixes cached instances into a batch
// whose solver never finishes: the hits are answered on the caller's
// goroutine before the deadline and stay answered, while the misses fail
// with the deadline or, never handed to a solver, are marked Skipped.
func TestSolveEachSkipsAfterCancellation(t *testing.T) {
	insts := distinctInstances(8)
	cached := map[int]bool{0: true, 3: true, 6: true}
	cache := solver.NewCache(4, 64)
	warm := newTestEngine(t, &countingSolver{name: "stub"}, func(cfg *Config) { cfg.Cache = cache })
	for idx := range cached {
		if _, err := warm.Solve(context.Background(), Request{Instance: insts[idx]}); err != nil {
			t.Fatal(err)
		}
	}

	stub := &countingSolver{name: "stub", block: make(chan struct{})} // never released
	defer close(stub.block)
	eng := newTestEngine(t, stub, func(cfg *Config) {
		cfg.MaxConcurrent = 1
		cfg.Cache = cache
	})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	outcomes := eng.SolveEach(ctx, "", "", insts, 2)
	failed, skipped := 0, 0
	for idx, out := range outcomes {
		if out.Index != idx {
			t.Fatalf("outcome %d has index %d", idx, out.Index)
		}
		if cached[idx] {
			if out.Err != nil || out.Result == nil || out.Result.Source != solver.SourceCache {
				t.Fatalf("cached instance %d: %+v, want its stored answer", idx, out)
			}
			continue
		}
		switch {
		case out.Skipped:
			skipped++
			if out.Err == nil {
				t.Fatalf("skipped outcome without error: %+v", out)
			}
		case out.Err != nil:
			failed++
		default:
			t.Fatalf("blocked solver cannot have solved instance %d", idx)
		}
	}
	if skipped == 0 {
		t.Fatal("expected some never-attempted instances marked skipped")
	}
	if failed+skipped != len(insts)-len(cached) {
		t.Fatalf("accounting broken: %d failed, %d skipped of %d misses", failed, skipped, len(insts)-len(cached))
	}
}

// TestSolveEachAllHitsAllocs bounds what an all-hit batch allocates: the
// stored answers are read on the caller's goroutine, so the batch starts no
// feeder pool and costs little more than each answer's Result.
func TestSolveEachAllHitsAllocs(t *testing.T) {
	eng := newTestEngine(t, &countingSolver{name: "stub"}, nil)
	insts := distinctInstances(4)
	ctx := context.Background()
	eng.SolveEach(ctx, "", "", insts, 0) // store every answer
	allocs := testing.AllocsPerRun(50, func() {
		for _, out := range eng.SolveEach(ctx, "", "", insts, 0) {
			if out.Err != nil || out.Result.Source != solver.SourceCache {
				t.Fatalf("outcome %d: %+v, want a stored answer", out.Index, out)
			}
		}
	})
	if max := 3.0 * float64(len(insts)); allocs > max {
		t.Fatalf("an all-hit batch of %d allocates %.1f times, want at most %.0f", len(insts), allocs, max)
	}
}

// TestSolveEachMatchesSerialEvaluate shards a batch of random instances
// across worker pools of several sizes (0 = MaxConcurrent, more workers than
// instances) and checks that the outcomes are index-aligned and carry the
// makespan a serial solver.Evaluate of the same solver finds. The engine is
// uncached so every run really solves.
func TestSolveEachMatchesSerialEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var insts []*core.Instance
	for i := 0; i < 24; i++ {
		insts = append(insts, gen.Random(rng, 2+rng.Intn(3), 2+rng.Intn(4), 0.05, 1.0))
	}
	reg := solver.Default()
	want := make([]int, len(insts))
	for i, inst := range insts {
		s, err := reg.New("greedy-balance")
		if err != nil {
			t.Fatal(err)
		}
		ev, err := solver.Evaluate(context.Background(), s, inst)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ev.Makespan
	}

	eng, err := New(Config{Registry: reg, DefaultSolver: "greedy-balance"})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3, 64} {
		outcomes := eng.SolveEach(context.Background(), "", "", insts, workers)
		if len(outcomes) != len(insts) {
			t.Fatalf("workers=%d: got %d outcomes, want %d", workers, len(outcomes), len(insts))
		}
		for i, out := range outcomes {
			if out.Err != nil {
				t.Fatalf("workers=%d instance %d: %v", workers, i, out.Err)
			}
			if out.Index != i {
				t.Fatalf("workers=%d: outcome %d has index %d", workers, i, out.Index)
			}
			if got := out.Result.Evaluation.Makespan; got != want[i] {
				t.Fatalf("workers=%d instance %d: makespan %d, want %d", workers, i, got, want[i])
			}
		}
	}
}

// TestSchedulerCancelledWaiterUnblocksQueue: a queued waiter whose context
// is cancelled leaves the queue, so the next release admits the waiter behind
// it instead of granting the slot to the abandoned one.
func TestSchedulerCancelledWaiterUnblocksQueue(t *testing.T) {
	sem := newFairScheduler(1, nil, 0)
	ctx := context.Background()
	if err := sem.Acquire(ctx, ""); err != nil {
		t.Fatal(err)
	}
	// One waiter queues first, then a second behind it (same tenant).
	firstCtx, firstCancel := context.WithCancel(ctx)
	firstErr := make(chan error, 1)
	go func() { firstErr <- sem.Acquire(firstCtx, "") }()
	for sem.Waiting() < 1 {
		time.Sleep(time.Millisecond)
	}
	secondErr := make(chan error, 1)
	go func() { secondErr <- sem.Acquire(ctx, "") }()
	for sem.Waiting() < 2 {
		time.Sleep(time.Millisecond)
	}

	firstCancel()
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	if got := sem.Waiting(); got != 1 {
		t.Fatalf("Waiting = %d after the cancellation, want 1", got)
	}
	select {
	case <-secondErr:
		t.Fatal("second waiter admitted while the slot was still held")
	case <-time.After(20 * time.Millisecond):
	}
	// The freed slot must go to the waiter still queued.
	sem.Release("")
	select {
	case err := <-secondErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("second waiter not admitted after the first one left")
	}
	sem.Release("")
	if inUse, waiting := sem.InUse(), sem.Waiting(); inUse != 0 || waiting != 0 {
		t.Fatalf("InUse = %d, Waiting = %d after draining, want 0, 0", inUse, waiting)
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	reg := solver.Default()
	eng, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if eng.DefaultSolver() != "portfolio" || eng.MaxConcurrent() != 16 {
		t.Fatalf("defaults not applied: %q %d", eng.DefaultSolver(), eng.MaxConcurrent())
	}
	if l := eng.Limits(); l.Default != 30*time.Second || l.Max != 2*time.Minute {
		t.Fatalf("default limits %+v", l)
	}
	if eng.Registry() != reg || eng.Cache() != nil {
		t.Fatal("accessors broken")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := New(Config{Registry: reg, DefaultSolver: "no-such"}); err == nil {
		t.Fatal("unknown default solver accepted")
	}
	name, err := eng.ResolveSolver("")
	if err != nil || name != "portfolio" {
		t.Fatalf("ResolveSolver empty = %q, %v", name, err)
	}
	if _, err := eng.ResolveSolver("no-such"); err == nil {
		t.Fatal("unknown solver resolved")
	}
}

func TestSolveWithoutCache(t *testing.T) {
	stub := &countingSolver{name: "stub"}
	eng := newTestEngine(t, stub, func(cfg *Config) { cfg.Cache = nil })
	inst := core.NewInstance([]float64{0.5})
	for i := 0; i < 2; i++ {
		res, err := eng.Solve(context.Background(), Request{Instance: inst})
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != solver.SourceSolve {
			t.Fatalf("uncached solve %d source %q", i, res.Source)
		}
	}
	if got := stub.calls.Load(); got != 2 {
		t.Fatalf("uncached engine memoised: %d calls", got)
	}
	if snap := eng.Snapshot(); snap.SourceSolve != 2 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestSnapshotHistogramsUnderConcurrentSolves snapshots the engine while
// fresh solves observe its histograms from several goroutines, and checks
// every solve is counted once in each histogram and no snapshot shares its
// counts with the live histogram.
func TestSnapshotHistogramsUnderConcurrentSolves(t *testing.T) {
	const solves = 32
	eng := newTestEngine(t, &countingSolver{name: "stub"}, func(cfg *Config) { cfg.Cache = nil })
	done := make(chan struct{})
	var snapshots sync.WaitGroup
	snapshots.Add(1)
	go func() {
		defer snapshots.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			snap := eng.Snapshot()
			snap.SolveNodes.Add(1) // a copy: must not reach the engine
		}
	}()
	var wg sync.WaitGroup
	for _, inst := range distinctInstances(solves) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Solve(context.Background(), Request{Instance: inst}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(done)
	snapshots.Wait()
	snap := eng.Snapshot()
	if snap.SolveSeconds.Total() != solves || snap.SolveNodes.Total() != solves || snap.SolveNodes.Sum != 7*solves {
		t.Fatalf("histograms after %d solves: seconds %d, nodes %d (sum %g)",
			solves, snap.SolveSeconds.Total(), snap.SolveNodes.Total(), snap.SolveNodes.Sum)
	}
}

func TestTelemetryJSONShape(t *testing.T) {
	// The telemetry must serialise with stable snake_case keys — it is part
	// of the public API surface (solve responses, job records, crload).
	eng := newTestEngine(t, &countingSolver{name: "stub"}, nil)
	res, err := eng.Solve(context.Background(), Request{Instance: core.NewInstance([]float64{0.5})})
	if err != nil {
		t.Fatal(err)
	}
	raw := fmt.Sprintf("%+v", res.Telemetry)
	if res.Telemetry.Solver != "stub" || res.Telemetry.LowerBoundKind == "" {
		t.Fatalf("telemetry incomplete: %s", raw)
	}
}
