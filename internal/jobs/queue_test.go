package jobs

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/solver"
)

// queueQuotas are the job-queue quotas of the tenants the queue tests
// submit under; the default tenant's quota (16x the engine's capacity)
// exceeds the queue depth.
var queueQuotas = map[string]int{"a": 2, "b": 3}

// newQueueManager builds a manager with 2 workers and a queue of 8 over a
// cache-less engine whose "stub" solver blocks until its context ends, so
// every job that reaches a worker stays running until it is cancelled.
func newQueueManager(t *testing.T, store Store) *Manager {
	t.Helper()
	stub := &stubSolver{name: "stub", block: make(chan struct{})}
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return stub })
	tenants := make(map[string]engine.TenantConfig)
	for name, q := range queueQuotas {
		tenants[name] = engine.TenantConfig{MaxQueued: q}
	}
	eng, err := engine.New(engine.Config{Registry: reg, DefaultSolver: "stub", Tenants: tenants})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Engine: eng, Workers: 2, QueueDepth: 8, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		m.Close(ctx)
	})
	return m
}

// churn runs workers goroutines that each make ops random Submit, Cancel,
// Get and List calls against m until done is closed or their ops run out.
// Submits spread over the default tenant and the quota'd ones, with
// distinct instances; every refusal must be a queue-full, a quota shed or a
// closed manager. It returns the IDs of every accepted job.
func churn(t *testing.T, m *Manager, workers, ops int, done <-chan struct{}) []string {
	t.Helper()
	tenants := []string{"", "a", "b"}
	var (
		mu  sync.Mutex
		ids []string
		wg  sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 35))
			for k := 0; k < ops; k++ {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				var pick string
				if len(ids) > 0 {
					pick = ids[rng.IntN(len(ids))]
				}
				mu.Unlock()
				switch op := rng.IntN(10); {
				case op < 5 || pick == "":
					inst := core.NewInstance([]float64{0.1 + 0.8*rng.Float64(), 0.5}, []float64{float64(g*ops+k) / float64(workers*ops+1)})
					s, err := m.Submit(Request{Instance: inst, Tenant: tenants[rng.IntN(len(tenants))]})
					var shed *engine.ErrShed
					switch {
					case err == nil:
						mu.Lock()
						ids = append(ids, s.ID)
						mu.Unlock()
					case errors.Is(err, ErrQueueFull), errors.As(err, &shed), errors.Is(err, ErrClosed):
					default:
						t.Errorf("submit: %v", err)
					}
				case op < 7:
					// A job is queued, running or terminal, so a cancel
					// leaves it pending only once Close has checkpointed it.
					s, err := m.Cancel(pick)
					m.mu.Lock()
					closing := m.closing
					m.mu.Unlock()
					if err != nil || s.State == StatePending && !closing {
						t.Errorf("cancel %s: %+v, %v", pick, s, err)
					}
				case op < 9:
					if s, err := m.Get(pick); err != nil || !s.State.Valid() {
						t.Errorf("get %s: %+v, %v", pick, s, err)
					}
				default:
					for _, s := range m.List(StatePending) {
						if s.State != StatePending {
							t.Errorf("List(pending) returned %s in state %s", s.ID, s.State)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	return ids
}

// TestQueueInvariantsUnderChurn interleaves submits, cancels, gets and lists
// from several goroutines against two workers stuck in their solves, then
// checks the queue at quiescence: the reported depth is the number of
// pending jobs, and once the pending jobs are cancelled every tenant can
// queue exactly its quota again (no phantom or lost queue entries).
func TestQueueInvariantsUnderChurn(t *testing.T) {
	m := newQueueManager(t, nil)
	ids := churn(t, m, 6, 300, nil)
	if len(ids) == 0 {
		t.Fatal("churn submitted nothing")
	}

	// Settled: no client-cancelled job is still winding down, and either
	// both workers are held by a blocked solve or nothing is left to pop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		running := m.List(StateRunning)
		st := m.Stats()
		if len(running) == st.Running && (st.Running == 2 || st.QueueDepth == 0) {
			cancelled := false
			for _, s := range running {
				j, _ := m.lookup(s.ID)
				j.mu.Lock()
				cancelled = cancelled || j.cancelRequested
				j.mu.Unlock()
			}
			if !cancelled {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never settled: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	pending := m.List(StatePending)
	if st := m.Stats(); st.QueueDepth != len(pending) || st.Running != len(m.List(StateRunning)) {
		t.Fatalf("stats %+v, but %d jobs pending and %d running", st, len(pending), len(m.List(StateRunning)))
	}
	for _, s := range pending {
		if c, err := m.Cancel(s.ID); err != nil || c.State != StateCancelled {
			t.Fatalf("cancel pending %s: %+v, %v", s.ID, c, err)
		}
	}
	if got := m.Stats().QueueDepth; got != 0 {
		t.Fatalf("queue depth %d after cancelling every pending job, want 0", got)
	}

	for tenant, quota := range queueQuotas {
		for i := 0; i < quota; i++ {
			inst := core.NewInstance([]float64{0.25, 0.5}, []float64{float64(i+1) / 10})
			if _, err := m.Submit(Request{Instance: inst, Tenant: tenant}); err != nil {
				t.Fatalf("tenant %s submit %d of its quota %d: %v", tenant, i+1, quota, err)
			}
		}
		var shed *engine.ErrShed
		if _, err := m.Submit(Request{Instance: testInstance(), Tenant: tenant}); !errors.As(err, &shed) {
			t.Fatalf("tenant %s over its quota %d: want a shed, got %v", tenant, quota, err)
		}
	}
	// The quotas hold 5 of the 8 slots; the default tenant fills the rest.
	for i := 0; ; i++ {
		_, err := m.Submit(Request{Instance: core.NewInstance([]float64{0.75}, []float64{float64(i+1) / 10})})
		if errors.Is(err, ErrQueueFull) {
			if got := m.Stats().QueueDepth; got != 8 || i != 3 {
				t.Fatalf("queue full after %d default submits at depth %d, want 3 at depth 8", i, got)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseDuringChurnLeavesNoJobInFlight closes a manager with a store
// while submits, cancels, gets and lists are still running. Afterwards every
// job is terminal or checkpointed pending: no job is running, every Wait
// returns at once, and each pending job's stored record is pending too.
func TestCloseDuringChurnLeavesNoJobInFlight(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := newQueueManager(t, store)
	done, finished := make(chan struct{}), make(chan struct{})
	var ids []string
	go func() {
		defer close(finished)
		ids = churn(t, m, 6, 1<<20, done)
	}()
	stop := sync.OnceFunc(func() {
		close(done)
		<-finished
	})
	defer stop()
	// Close once the queue has seen some traffic; the churn goes on until
	// Close has returned.
	for deadline := time.Now().Add(10 * time.Second); m.Stats().Submitted < 16; {
		if time.Now().After(deadline) {
			t.Fatalf("churn never got going: %+v", m.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	stop()

	stored := map[string]State{}
	records, err := store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		stored[rec.Snapshot.ID] = rec.Snapshot.State
	}
	for _, id := range ids {
		s, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatalf("Wait %s after Close: %v", id, err)
		}
		switch {
		case s.State.Terminal():
		case s.State == StatePending:
			if stored[id] != StatePending {
				t.Fatalf("job %s left pending but stored as %q", id, stored[id])
			}
		default:
			t.Fatalf("job %s is %s after Close", id, s.State)
		}
	}
	if st := m.Stats(); st.QueueDepth != 0 || st.Running != 0 {
		t.Fatalf("stats after Close: %+v", st)
	}
	if _, err := m.Submit(Request{Instance: testInstance()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v", err)
	}
}
