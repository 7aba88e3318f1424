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
	name  string
	calls atomic.Int64
	block chan struct{} // when non-nil, Solve waits for close(block) or ctx
	fail  error
}

func (s *stubSolver) Name() string { return s.name }

func (s *stubSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, Stats, error) {
	s.calls.Add(1)
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

// TestCacheLeaderCancelDoesNotPoison cancels the in-flight leader and checks
// that a waiting follower retries under its own live context instead of
// inheriting the leader's cancellation.
func TestCacheLeaderCancelDoesNotPoison(t *testing.T) {
	c := NewCache(1, 8)
	s := &stubSolver{name: "stub", block: make(chan struct{})}
	inst := core.NewInstance([]float64{0.3, 0.7})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderOut := make(chan error, 1)
	go func() {
		close(leaderIn)
		_, _, err := c.Evaluate(leaderCtx, s, inst)
		leaderOut <- err
	}()
	<-leaderIn
	for s.calls.Load() == 0 { // leader is inside Solve, blocked
		runtime.Gosched()
	}

	followerOut := make(chan error, 1)
	go func() {
		ev, _, err := c.Evaluate(context.Background(), s, inst)
		if err == nil && ev == nil {
			err = errors.New("nil evaluation")
		}
		followerOut <- err
	}()

	cancelLeader()
	if err := <-leaderOut; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err=%v, want context.Canceled", err)
	}
	close(s.block) // the follower's retry solve completes immediately
	if err := <-followerOut; err != nil {
		t.Fatalf("follower: %v, want success via retry", err)
	}
	if got := s.calls.Load(); got != 2 {
		t.Fatalf("solver invoked %d times, want 2 (leader + follower retry)", got)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(2, 16)
	s := &stubSolver{name: "stub", fail: errors.New("boom")}
	inst := core.NewInstance([]float64{0.3})
	for i := 0; i < 2; i++ {
		if _, _, err := c.Evaluate(context.Background(), s, inst); err == nil {
			t.Fatal("expected solve error")
		}
	}
	if got := s.calls.Load(); got != 2 {
		t.Fatalf("solver invoked %d times, want 2 (errors are not cached)", got)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d, want 0", st.Entries)
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
