package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
)

// stubSolver counts its Solve calls and can block or fail on demand; when it
// succeeds it delegates to greedy-balance so the schedule is valid.
type stubSolver struct {
	name      string
	calls     atomic.Int64
	block     chan struct{} // when non-nil, Solve waits for close(block) or ctx
	fail      error
	failFirst error // returned by the first call only
}

func (s *stubSolver) Name() string { return s.name }

func (s *stubSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, Stats, error) {
	n := s.calls.Add(1)
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return nil, Stats{Solver: s.name}, ctx.Err()
		}
	}
	if s.fail != nil {
		return nil, Stats{Solver: s.name}, s.fail
	}
	if n == 1 && s.failFirst != nil {
		return nil, Stats{Solver: s.name}, s.failFirst
	}
	sched, err := greedybalance.New().Schedule(inst)
	return sched, Stats{Solver: s.name}, err
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(4, 64)
	s := &stubSolver{name: "stub"}
	inst := core.NewInstance([]float64{0.3, 0.7}, []float64{0.5})

	ev1, src, err := c.Evaluate(context.Background(), s, inst)
	if err != nil || src != SourceSolve {
		t.Fatalf("first call: src=%v err=%v, want solve/nil", src, err)
	}
	ev2, src, err := c.Evaluate(context.Background(), s, inst)
	if err != nil || src != SourceCache {
		t.Fatalf("second call: src=%v err=%v, want cache/nil", src, err)
	}
	if ev1 != ev2 {
		t.Fatal("cache hit must return the stored evaluation")
	}
	if got := s.calls.Load(); got != 1 {
		t.Fatalf("solver invoked %d times, want 1", got)
	}
	// A permuted-processor instance is the same problem and must also hit.
	if _, src, _ = c.Evaluate(context.Background(), s, core.NewInstance([]float64{0.5}, []float64{0.3, 0.7})); src != SourceCache {
		t.Fatalf("permuted instance: src=%v, want cache", src)
	}
	// A different instance misses.
	if _, src, err = c.Evaluate(context.Background(), s, core.NewInstance([]float64{0.9})); err != nil || src != SourceSolve {
		t.Fatalf("different instance: src=%v err=%v, want solve/nil", src, err)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 hits, 2 misses, 2 entries", st)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(4, 64)
	s := &stubSolver{name: "stub", block: make(chan struct{})}
	inst := core.NewInstance([]float64{0.3, 0.7})

	const n = 16
	sources := make([]Source, n)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			ev, src, err := c.Evaluate(context.Background(), s, inst)
			if err != nil || ev == nil {
				t.Errorf("call %d: err=%v", i, err)
			}
			sources[i] = src
		}(i)
	}
	started.Wait()
	close(s.block)
	wg.Wait()

	if got := s.calls.Load(); got != 1 {
		t.Fatalf("solver invoked %d times, want 1 (singleflight)", got)
	}
	solves := 0
	for _, src := range sources {
		if src == SourceSolve {
			solves++
		} else if src != SourceCoalesced && src != SourceCache {
			t.Fatalf("unexpected source %q", src)
		}
	}
	if solves != 1 {
		t.Fatalf("%d callers reported a fresh solve, want 1", solves)
	}
}

// shedLikeErr mimics the engine's quota shed without importing it.
type shedLikeErr struct{}

func (shedLikeErr) Error() string { return "quota shed" }
func (shedLikeErr) Shed() bool    { return true }

// waitingCtx is a never-cancelled context that closes waiting the first time
// Done is called. Evaluate touches ctx.Done only when it parks on another
// caller's in-flight solve, so waiting closing means the caller has joined
// that flight as a follower.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx() *waitingCtx {
	return &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestCacheLeaderCancelDoesNotPoison fails the in-flight leader with a
// transient error (its own cancellation, or an admission shed) and checks
// that a waiting follower retries under its own live context instead of
// inheriting the leader's failure.
func TestCacheLeaderCancelDoesNotPoison(t *testing.T) {
	for _, tc := range []struct {
		name string
		shed bool
	}{{"cancel", false}, {"shed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(1, 8)
			s := &stubSolver{name: "stub", block: make(chan struct{})}
			if tc.shed {
				s.failFirst = shedLikeErr{}
			}
			inst := core.NewInstance([]float64{0.3, 0.7})

			leaderCtx, cancelLeader := context.WithCancel(context.Background())
			defer cancelLeader()
			leaderOut := make(chan error, 1)
			go func() {
				_, _, err := c.Evaluate(leaderCtx, s, inst)
				leaderOut <- err
			}()
			for s.calls.Load() == 0 { // leader is inside Solve, blocked
				runtime.Gosched()
			}

			followerCtx := newWaitingCtx()
			followerOut := make(chan error, 1)
			go func() {
				ev, _, err := c.Evaluate(followerCtx, s, inst)
				if err == nil && ev == nil {
					err = errors.New("nil evaluation")
				}
				followerOut <- err
			}()
			<-followerCtx.waiting // the follower is parked on the leader's flight

			if tc.shed {
				close(s.block) // the leader's solve returns the shed
				if err := <-leaderOut; !errors.Is(err, shedLikeErr{}) {
					t.Fatalf("leader: err=%v, want the shed", err)
				}
			} else {
				cancelLeader()
				if err := <-leaderOut; !errors.Is(err, context.Canceled) {
					t.Fatalf("leader: err=%v, want context.Canceled", err)
				}
				close(s.block) // the follower's retry solve completes immediately
			}
			if err := <-followerOut; err != nil {
				t.Fatalf("follower: %v, want success via retry", err)
			}
			if got := s.calls.Load(); got != 2 {
				t.Fatalf("solver invoked %d times, want 2 (leader + follower retry)", got)
			}
		})
	}
}

// TestCacheErrorsNotCached: no solve error is remembered, whether it refutes
// the instance or is tied to the caller (cancellation, deadline, shed).
func TestCacheErrorsNotCached(t *testing.T) {
	for _, fail := range []error{errors.New("boom"), context.Canceled, context.DeadlineExceeded, shedLikeErr{}} {
		c := NewCache(2, 16)
		s := &stubSolver{name: "stub", fail: fail}
		inst := core.NewInstance([]float64{0.3})
		for i := 0; i < 2; i++ {
			if _, _, err := c.Evaluate(context.Background(), s, inst); !errors.Is(err, fail) {
				t.Fatalf("%v: err=%v, want the solve error", fail, err)
			}
		}
		if got := s.calls.Load(); got != 2 {
			t.Fatalf("%v: solver invoked %d times, want 2 (errors are not cached)", fail, got)
		}
		if st := c.Stats(); st.Entries != 0 {
			t.Fatalf("%v: entries = %d, want 0", fail, st.Entries)
		}
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(1, 2) // single shard of capacity 2
	s := &stubSolver{name: "stub"}
	for i := 0; i < 5; i++ {
		inst := core.NewInstance([]float64{float64(i+1) / 10})
		if _, _, err := c.Evaluate(context.Background(), s, inst); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want capacity 2", st.Entries)
	}
	if st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
	// The most recent entry is resident.
	if !c.Contains("stub", core.NewInstance([]float64{0.5}).Fingerprint()) {
		t.Fatal("most recent entry should be resident")
	}
	// The oldest is gone.
	if c.Contains("stub", core.NewInstance([]float64{0.1}).Fingerprint()) {
		t.Fatal("oldest entry should have been evicted")
	}
}

// TestCachePermutedHitRemapsSchedule submits a permuted-processor sibling of
// a cached instance and checks the returned schedule is valid for the
// permuted ordering, not the original one — the fingerprint normalizes
// processor order, so the cache must remap schedule columns on such hits.
func TestCachePermutedHitRemapsSchedule(t *testing.T) {
	c := NewCache(2, 16)
	s := &stubSolver{name: "stub"}
	orig := core.NewInstance([]float64{0.9, 0.9}, []float64{0.1})
	perm := core.NewInstance([]float64{0.1}, []float64{0.9, 0.9})

	ev1, _, err := c.Evaluate(context.Background(), s, orig)
	if err != nil {
		t.Fatal(err)
	}
	ev2, src, err := c.Evaluate(context.Background(), s, perm)
	if err != nil || src != SourceCache {
		t.Fatalf("permuted request: src=%v err=%v, want cache hit", src, err)
	}
	res, err := core.Execute(perm, ev2.Schedule)
	if err != nil {
		t.Fatalf("remapped schedule invalid for permuted instance: %v", err)
	}
	if !res.Finished() {
		t.Fatal("remapped schedule does not finish the permuted instance's jobs")
	}
	if res.Makespan() != ev1.Makespan {
		t.Fatalf("makespan %d after remap, want %d", res.Makespan(), ev1.Makespan)
	}
	if got := s.calls.Load(); got != 1 {
		t.Fatalf("solver invoked %d times, want 1", got)
	}
}

func TestCacheDistinctSolversDistinctEntries(t *testing.T) {
	c := NewCache(4, 16)
	inst := core.NewInstance([]float64{0.3, 0.7})
	a := &stubSolver{name: "a"}
	b := &stubSolver{name: "b"}
	if _, src, _ := c.Evaluate(context.Background(), a, inst); src != SourceSolve {
		t.Fatalf("solver a: src=%v, want solve", src)
	}
	if _, src, _ := c.Evaluate(context.Background(), b, inst); src != SourceSolve {
		t.Fatalf("solver b: src=%v, want solve (cache is keyed per solver)", src)
	}
	if got := fmt.Sprint(a.calls.Load(), b.calls.Load()); got != "1 1" {
		t.Fatalf("calls = %s, want 1 1", got)
	}
}

// gatedSolver holds every Solve until gate closes, then delegates.
type gatedSolver struct {
	Solver
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, Stats, error) {
	close(g.entered)
	<-g.gate
	return g.Solver.Solve(ctx, inst)
}

// TestCacheStoresNoRaceRecords: the leader of a portfolio miss gets the
// per-member race records, but the stored entry — what hits and coalesced
// followers share — holds none.
func TestCacheStoresNoRaceRecords(t *testing.T) {
	c := NewCache(1, 8)
	p := &gatedSolver{Solver: NewDefaultPortfolio(), entered: make(chan struct{}), gate: make(chan struct{})}
	members := len(NewDefaultPortfolio().Members)
	inst := core.NewInstance([]float64{0.3, 0.7}, []float64{0.5, 0.2})

	type outcome struct {
		ev  *Evaluation
		src Source
		err error
	}
	leader := make(chan outcome, 1)
	go func() {
		ev, src, err := c.Evaluate(context.Background(), p, inst)
		leader <- outcome{ev, src, err}
	}()
	<-p.entered
	followerCtx := newWaitingCtx()
	follower := make(chan outcome, 1)
	go func() {
		ev, src, err := c.Evaluate(followerCtx, p, core.NewInstance([]float64{0.5, 0.2}, []float64{0.3, 0.7}))
		follower <- outcome{ev, src, err}
	}()
	<-followerCtx.waiting
	close(p.gate)

	lo, fo := <-leader, <-follower
	if lo.err != nil || lo.src != SourceSolve {
		t.Fatalf("leader: src=%v err=%v, want a fresh solve", lo.src, lo.err)
	}
	if got := len(lo.ev.Stats.Candidates); got != members {
		t.Fatalf("leader got %d race records, want %d", got, members)
	}
	if fo.err != nil || fo.src != SourceCoalesced {
		t.Fatalf("follower: src=%v err=%v, want coalesced", fo.src, fo.err)
	}
	if fo.ev.Stats.Candidates != nil {
		t.Fatalf("coalesced follower got %d race records, want none", len(fo.ev.Stats.Candidates))
	}
	hit, src, err := c.Evaluate(context.Background(), p, inst)
	if err != nil || src != SourceCache {
		t.Fatalf("repeat: src=%v err=%v, want a hit", src, err)
	}
	if hit.Stats.Candidates != nil {
		t.Fatalf("cache hit got %d race records, want none", len(hit.Stats.Candidates))
	}
	if hit.Makespan != lo.ev.Makespan || hit.Stats.Winner != lo.ev.Stats.Winner {
		t.Fatalf("hit %d by %q, leader %d by %q", hit.Makespan, hit.Stats.Winner, lo.ev.Makespan, lo.ev.Stats.Winner)
	}
}
