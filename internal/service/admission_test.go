package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/solver"
)

// gaugeSolver records its concurrency high-water mark and blocks until
// released, delegating to greedy-balance for the actual schedule.
type gaugeSolver struct {
	cur, max atomic.Int64
	calls    atomic.Int64
	block    chan struct{}
}

func (s *gaugeSolver) Name() string { return "gauge" }

func (s *gaugeSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
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
			return nil, solver.Stats{Solver: "gauge"}, ctx.Err()
		}
	}
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	return sched, solver.Stats{Solver: "gauge", Elapsed: time.Microsecond}, err
}

// TestSharedAdmissionAcrossAllSurfaces is the regression for the admission
// gap this refactor closes: before internal/engine, the concurrency
// semaphore lived in the HTTP layer, so batch shards went through it but
// job workers did not. Now a saturating batch plus a full job queue plus
// synchronous solves, all in flight at once, can never push the solver's
// concurrency high-water mark past the engine's MaxConcurrent — and the
// sync solves still complete (they queue FIFO; they are not starved).
func TestSharedAdmissionAcrossAllSurfaces(t *testing.T) {
	const cap = 2
	stub := &gaugeSolver{block: make(chan struct{})}
	reg := solver.NewRegistry()
	reg.Register("gauge", func() solver.Solver { return stub })
	eng := newTestEngine(t, engine.Config{
		Registry:       reg,
		Cache:          solver.NewCache(4, 64),
		DefaultSolver:  "gauge",
		MaxConcurrent:  cap,
		DefaultTimeout: 30 * time.Second,
	})
	manager, err := jobs.New(jobs.Config{Engine: eng, Workers: 3, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		manager.Close(ctx)
	})
	srv, err := New(Config{Engine: eng, Jobs: manager, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Distinct fingerprints everywhere so the singleflight cache cannot
	// collapse the load.
	mk := func(i int) *core.Instance {
		return core.NewInstance([]float64{float64(i+1) / 32, 0.5}, []float64{0.25})
	}

	var wg sync.WaitGroup
	// A saturating batch of 8 instances...
	wg.Add(1)
	go func() {
		defer wg.Done()
		insts := make([]*core.Instance, 8)
		for i := range insts {
			insts[i] = mk(i)
		}
		resp, body := postJSON(t, ts.URL+"/v1/batch-solve", BatchRequest{Instances: insts})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("batch status %d: %s", resp.StatusCode, body)
		}
	}()
	// ...plus three async jobs...
	jobIDs := make([]string, 3)
	for i := range jobIDs {
		snap, err := manager.Submit(jobs.Request{Instance: mk(8 + i)})
		if err != nil {
			t.Fatal(err)
		}
		jobIDs[i] = snap.ID
	}
	// ...plus two synchronous solves.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: mk(11 + i)})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("sync solve status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}

	// Wait for the cap to be reached, hold a beat to catch overshoot, then
	// release everything.
	deadline := time.Now().Add(5 * time.Second)
	for stub.cur.Load() < cap && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(25 * time.Millisecond)
	close(stub.block)
	wg.Wait()
	for _, id := range jobIDs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		snap, err := manager.Wait(ctx, id)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if snap.State != jobs.StateDone {
			t.Fatalf("job %s ended %s: %s", id, snap.State, snap.Error)
		}
	}

	if got := stub.max.Load(); got > cap {
		t.Fatalf("solver concurrency reached %d with batch+jobs+sync in flight, admission cap is %d", got, cap)
	}
	if got := stub.max.Load(); got != cap {
		t.Fatalf("solver concurrency peaked at %d, expected the cap %d to be fully used", got, cap)
	}
}
