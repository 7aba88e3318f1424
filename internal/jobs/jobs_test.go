package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/progress"
	"crsharing/internal/solver"
)

// stubSolver counts solves, optionally blocks until released or cancelled,
// and optionally reports incumbents before finishing. Successful solves
// delegate to greedy-balance so the schedule is valid.
type stubSolver struct {
	name       string
	calls      atomic.Int64
	block      chan struct{} // when non-nil, wait for close or ctx
	incumbents []int         // makespans to report before solving
	fail       error         // when non-nil, return this error
}

func (s *stubSolver) Name() string { return s.name }

func (s *stubSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	s.calls.Add(1)
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return nil, solver.Stats{Solver: s.name}, ctx.Err()
		}
	}
	for _, mk := range s.incumbents {
		progress.Report(ctx, progress.Incumbent{Solver: s.name, Makespan: mk})
	}
	if s.fail != nil {
		return nil, solver.Stats{Solver: s.name}, s.fail
	}
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	return sched, solver.Stats{Solver: s.name, Elapsed: time.Microsecond}, err
}

func testInstance() *core.Instance {
	return core.NewInstance([]float64{0.3, 0.7}, []float64{0.5})
}

// newTestEngine builds an engine over reg defaulting to the "stub" solver,
// memoising into cache (nil: no cache).
func newTestEngine(t *testing.T, reg *solver.Registry, cache *solver.Cache) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{Registry: reg, Cache: cache, DefaultSolver: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// newTestManager builds a manager over a registry serving the stub as both
// "stub" and the default solver.
func newTestManager(t *testing.T, stub *stubSolver, mutate func(*Config)) *Manager {
	t.Helper()
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return stub })
	cfg := Config{
		Engine:        newTestEngine(t, reg, solver.NewCache(4, 64)),
		DefaultSolver: "stub",
		Workers:       2,
		QueueDepth:    8,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New(cfg)
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

func waitDone(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestNewRequiresEngine pins that a manager cannot be built without the
// shared solve pipeline.
func TestNewRequiresEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without an Engine")
	}
}

func TestLifecycleDone(t *testing.T) {
	stub := &stubSolver{name: "stub", incumbents: []int{5, 3}}
	m := newTestManager(t, stub, nil)

	snap, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StatePending || snap.ID == "" || snap.Fingerprint == "" {
		t.Fatalf("bad submit snapshot: %+v", snap)
	}
	final := waitDone(t, m, snap.ID)
	if final.State != StateDone {
		t.Fatalf("state %q (error %q), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Schedule == nil || final.Result.Makespan <= 0 {
		t.Fatalf("missing result: %+v", final.Result)
	}
	if len(final.Incumbents) != 2 || final.Incumbents[0].Makespan != 5 || final.Incumbents[1].Makespan != 3 {
		t.Fatalf("incumbents not recorded monotonically: %+v", final.Incumbents)
	}
	if final.Started.IsZero() || final.Finished.IsZero() {
		t.Fatalf("timestamps missing: %+v", final)
	}
	st := m.Stats()
	if st.Submitted != 1 || st.Done != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestIncumbentFilteringKeepsOnlyImprovements(t *testing.T) {
	stub := &stubSolver{name: "stub", incumbents: []int{7, 7, 9, 4, 4, 2}}
	m := newTestManager(t, stub, nil)
	snap, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, snap.ID)
	want := []int{7, 4, 2}
	if len(final.Incumbents) != len(want) {
		t.Fatalf("incumbents %+v, want makespans %v", final.Incumbents, want)
	}
	for i, mk := range want {
		if final.Incumbents[i].Makespan != mk {
			t.Fatalf("incumbents %+v, want makespans %v", final.Incumbents, want)
		}
	}
}

func TestFailedSolve(t *testing.T) {
	stub := &stubSolver{name: "stub", fail: errors.New("boom")}
	m := newTestManager(t, stub, nil)
	snap, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, snap.ID)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("want failed with error, got %+v", final)
	}
	if m.Stats().Failed != 1 {
		t.Fatalf("stats %+v", m.Stats())
	}
}

func TestJobTimeoutFails(t *testing.T) {
	stub := &stubSolver{name: "stub", block: make(chan struct{})}
	m := newTestManager(t, stub, func(c *Config) {
		c.DefaultTimeout = 30 * time.Millisecond
	})
	snap, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, snap.ID)
	if final.State != StateFailed {
		t.Fatalf("want failed on budget, got %+v", final)
	}
}

func TestCancelRunning(t *testing.T) {
	stub := &stubSolver{name: "stub", block: make(chan struct{})}
	m := newTestManager(t, stub, nil)
	snap, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is running.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, err := m.Get(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", cur)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := m.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, m, snap.ID)
	if final.State != StateCancelled || final.Error != "cancelled by client" {
		t.Fatalf("want client cancel, got %+v", final)
	}
}

func TestCancelPendingAndQueueFull(t *testing.T) {
	block := make(chan struct{})
	stub := &stubSolver{name: "stub", block: block}
	m := newTestManager(t, stub, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 2
	})
	// First job occupies the single worker; the queue then holds two more.
	first, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up, freeing its queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := m.Get(first.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	var queued []Snapshot
	for i := 0; i < 2; i++ {
		s, err := m.Submit(Request{Instance: testInstance()})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, s)
	}
	if _, err := m.Submit(Request{Instance: testInstance()}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}

	// Cancel one queued job: immediate terminal state, never solved, and its
	// queue slot is freed for a new submission even though no worker has
	// drained the stale entry yet.
	cancelled, err := m.Cancel(queued[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != StateCancelled {
		t.Fatalf("pending cancel should be immediate, got %+v", cancelled)
	}
	if got := m.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue depth after cancel = %d, want 1", got)
	}
	refill, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatalf("cancelling a queued job must free its slot: %v", err)
	}
	queued[0] = refill
	before := stub.calls.Load()

	close(block) // release the worker
	if s := waitDone(t, m, queued[1].ID); s.State != StateDone {
		t.Fatalf("remaining queued job should finish, got %+v", s)
	}
	// The cancelled job must have been skipped, not solved. The remaining
	// two jobs share a fingerprint, so the second is answered by the cache.
	if got := stub.calls.Load(); got != before {
		t.Fatalf("cancelled job reached the solver: %d calls after cancel, %d before", got, before)
	}
}

func TestSubmitValidation(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	m := newTestManager(t, stub, nil)
	if _, err := m.Submit(Request{}); err == nil {
		t.Fatal("missing instance must be rejected")
	}
	if _, err := m.Submit(Request{Instance: testInstance(), Solver: "nope"}); err == nil {
		t.Fatal("unknown solver must be rejected")
	}
	bad := core.NewInstance([]float64{1.5})
	if _, err := m.Submit(Request{Instance: bad}); err == nil {
		t.Fatal("invalid instance must be rejected")
	}
}

func TestSubscribeStreamsEvents(t *testing.T) {
	block := make(chan struct{})
	stub := &stubSolver{name: "stub", incumbents: []int{6, 4}, block: block}
	m := newTestManager(t, stub, func(c *Config) { c.Workers = 1 })
	snap, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	_, ch, unsub, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	close(block) // incumbents are reported only after the subscription exists
	var events []Event
	timeout := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				goto donecollect
			}
			events = append(events, ev)
		case <-timeout:
			t.Fatalf("stream never closed; got %+v", events)
		}
	}
donecollect:
	var incumbents, terminal int
	for _, ev := range events {
		switch ev.Type {
		case EventIncumbent:
			incumbents++
		case EventState:
			if ev.State.Terminal() {
				terminal++
			}
		}
	}
	if incumbents != 2 {
		t.Fatalf("want 2 incumbent events, got %+v", events)
	}
	if terminal != 1 {
		t.Fatalf("want exactly one terminal event, got %+v", events)
	}

	// A subscription to a terminal job yields a closed channel immediately.
	final, ch2, unsub2, err := m.Subscribe(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub2()
	if !final.State.Terminal() {
		t.Fatalf("snapshot should be terminal, got %+v", final)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("channel for a terminal job must be closed")
	}
}

func TestListFilter(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	m := newTestManager(t, stub, nil)
	var ids []string
	for i := 0; i < 3; i++ {
		s, err := m.Submit(Request{Instance: testInstance()})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	for _, id := range ids {
		waitDone(t, m, id)
	}
	all := m.List("")
	if len(all) != 3 {
		t.Fatalf("want 3 jobs, got %d", len(all))
	}
	for i, id := range ids {
		if all[i].ID != id {
			t.Fatalf("list not in submission order: %+v", all)
		}
	}
	if got := m.List(StateDone); len(got) != 3 {
		t.Fatalf("want 3 done jobs, got %d", len(got))
	}
	if got := m.List(StateFailed); len(got) != 0 {
		t.Fatalf("want 0 failed jobs, got %d", len(got))
	}
}

func TestCloseCancelsRunningAndRejectsSubmits(t *testing.T) {
	stub := &stubSolver{name: "stub", block: make(chan struct{})}
	m := newTestManager(t, stub, nil)
	snap, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := m.Get(snap.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	final, err := m.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled || final.Error != "cancelled by shutdown" {
		t.Fatalf("want shutdown cancel, got %+v", final)
	}
	if _, err := m.Submit(Request{Instance: testInstance()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestRestartServesStoredResultWithoutResolving(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubSolver{name: "stub"}
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return stub })

	m1, err := New(Config{Engine: newTestEngine(t, reg, nil), DefaultSolver: "stub", Workers: 1, QueueDepth: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m1.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := m1.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil || final.Result.Schedule == nil {
		t.Fatalf("first run did not complete: %+v", final)
	}
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	solves := stub.calls.Load()

	// "Restart": a fresh manager over the same store (and a fresh cache).
	m2, err := New(Config{Engine: newTestEngine(t, reg, nil), DefaultSolver: "stub", Workers: 1, QueueDepth: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(ctx)
	restored, err := m2.Get(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State != StateDone {
		t.Fatalf("restored job not done: %+v", restored)
	}
	if restored.Result == nil || restored.Result.Makespan != final.Result.Makespan || restored.Result.Schedule == nil {
		t.Fatalf("restored result mismatch: %+v vs %+v", restored.Result, final.Result)
	}
	if got := stub.calls.Load(); got != solves {
		t.Fatalf("restart re-solved: %d calls, want %d", got, solves)
	}
	// The restored terminal job is immediately waitable and subscribable.
	if s, err := m2.Wait(ctx, snap.ID); err != nil || s.State != StateDone {
		t.Fatalf("Wait on restored job: %+v, %v", s, err)
	}
}

func TestRestartRequeuesPendingJobs(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Manager 1: worker blocked, so the submitted job is checkpointed as
	// pending on shutdown.
	block := make(chan struct{})
	stub1 := &stubSolver{name: "stub", block: block}
	reg1 := solver.NewRegistry()
	reg1.Register("stub", func() solver.Solver { return stub1 })
	m1, err := New(Config{Engine: newTestEngine(t, reg1, nil), DefaultSolver: "stub", Workers: 1, QueueDepth: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// Submit two: one will be picked up (then cancelled by shutdown), one
	// stays queued and must be checkpointed pending.
	a, err := m1.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m1.Submit(Request{Instance: core.NewInstance([]float64{0.9, 0.1})})
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Manager 2 restores and runs the checkpointed job to completion.
	stub2 := &stubSolver{name: "stub"}
	reg2 := solver.NewRegistry()
	reg2.Register("stub", func() solver.Solver { return stub2 })
	m2, err := New(Config{Engine: newTestEngine(t, reg2, nil), DefaultSolver: "stub", Workers: 1, QueueDepth: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(ctx)
	final, err := m2.Wait(ctx, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("requeued job did not complete: %+v", final)
	}
	if stub2.calls.Load() == 0 {
		t.Fatal("restored pending job never reached the solver")
	}
}

func TestRetentionEvictsOldestTerminalRecords(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubSolver{name: "stub"}
	m := newTestManager(t, stub, func(c *Config) {
		c.MaxRecords = 3
		c.Store = store
	})
	var ids []string
	for i := 0; i < 5; i++ {
		s, err := m.Submit(Request{Instance: testInstance()})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, m, s.ID)
		ids = append(ids, s.ID)
	}
	all := m.List("")
	if len(all) != 3 {
		t.Fatalf("retention kept %d records, want 3", len(all))
	}
	for _, old := range ids[:2] {
		if _, err := m.Get(old); !errors.Is(err, ErrNotFound) {
			t.Fatalf("oldest record %s should be evicted, got %v", old, err)
		}
	}
	for _, recent := range ids[2:] {
		if _, err := m.Get(recent); err != nil {
			t.Fatalf("recent record %s should survive: %v", recent, err)
		}
	}
	// Evicted records are gone from the store too.
	records, err := store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("store holds %d records after eviction, want 3", len(records))
	}
}

func TestCancelledQueueEntriesDoNotExhaustTransport(t *testing.T) {
	// One worker stuck on a forever job; repeatedly filling and cancelling
	// the queue must never wedge admission on stale channel entries.
	block := make(chan struct{})
	defer close(block)
	stub := &stubSolver{name: "stub", block: block}
	m := newTestManager(t, stub, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 2
	})
	first, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := m.Get(first.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	for round := 0; round < 4; round++ {
		var batch []Snapshot
		for i := 0; i < 2; i++ {
			s, err := m.Submit(Request{Instance: testInstance()})
			if err != nil {
				t.Fatalf("round %d submit %d: %v", round, i, err)
			}
			batch = append(batch, s)
		}
		for _, s := range batch {
			if _, err := m.Cancel(s.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := m.Stats().QueueDepth; got != 0 {
		t.Fatalf("queue depth %d after cancelling everything, want 0", got)
	}
}

func TestCloseReleasesWaitersOnCheckpointedJobs(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	defer close(block)
	stub := &stubSolver{name: "stub", block: block}
	m := newTestManager(t, stub, func(c *Config) {
		c.Workers = 1
		c.Store = store
	})
	running, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur, _ := m.Get(running.ID)
		if cur.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	pending, err := m.Submit(Request{Instance: core.NewInstance([]float64{0.9})})
	if err != nil {
		t.Fatal(err)
	}

	waitErr := make(chan error, 1)
	var waited Snapshot
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var err error
		waited, err = m.Wait(ctx, pending.ID)
		waitErr <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("Wait errored: %v", err)
		}
		if waited.State != StatePending {
			t.Fatalf("checkpointed job should still read pending, got %+v", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked after Close checkpointed the job")
	}
}

func TestRestartQuarantinesRecordsWithoutInstance(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A non-terminal record whose request lost its instance (truncated or
	// hand-edited file) must surface as failed, not panic a worker.
	bad := Record{Snapshot: Snapshot{ID: "deadbeefdeadbeef", State: StatePending, Submitted: time.Now().UTC()}}
	if err := store.Save(bad); err != nil {
		t.Fatal(err)
	}
	stub := &stubSolver{name: "stub"}
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return stub })
	m, err := New(Config{Engine: newTestEngine(t, reg, nil), DefaultSolver: "stub", Workers: 1, QueueDepth: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	defer m.Close(ctx)
	snap, err := m.Get("deadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != StateFailed || snap.Error == "" {
		t.Fatalf("corrupt record should be quarantined as failed, got %+v", snap)
	}
	// The manager still works for fresh submissions.
	fresh, err := m.Submit(Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	if final, err := m.Wait(ctx, fresh.ID); err != nil || final.State != StateDone {
		t.Fatalf("fresh job after quarantine: %+v, %v", final, err)
	}
}

func TestFileStoreRejectsUnsafeIDs(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	err = store.Save(Record{Snapshot: Snapshot{ID: "../escape"}})
	if err == nil {
		t.Fatal("path-traversing id must be rejected")
	}
}

// TestFileStoreRecordsArePrivateAndTempsIgnored checks the store's on-disk
// contract: records are 0600 (they hold client requests), no temp file
// survives a save, and a temp file a crash left behind — named the way
// durable.WriteFile names them, with a decodable record inside — is not
// loaded as a record.
func TestFileStoreRecordsArePrivateAndTempsIgnored(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Snapshot: Snapshot{ID: "abc123", State: StateDone, Submitted: time.Now().UTC()}}
	if err := store.Save(rec); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "abc123.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Mode().Perm(); got != 0o600 {
		t.Fatalf("record mode %o, want 600", got)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".*.tmp-*")); len(tmps) != 0 {
		t.Fatalf("temp files survived the save: %v", tmps)
	}

	stray, err := json.Marshal(Record{Snapshot: Snapshot{ID: "def456", State: StateDone}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".def456.json.tmp-123"), stray, 0o600); err != nil {
		t.Fatal(err)
	}
	records, err := store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Snapshot.ID != "abc123" {
		t.Fatalf("LoadAll = %+v, want only the saved record", records)
	}
}

// TestFileStoreQuarantinesCorruptRecords puts an undecodable record next to
// a good one: the manager still starts and restores the good one, and the bad
// one is renamed to <id>.json.corrupt so later starts do not read it again.
func TestFileStoreQuarantinesCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := Record{Snapshot: Snapshot{ID: "abc123", State: StateDone, Submitted: time.Now().UTC()}}
	if err := store.Save(good); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "def456.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o600); err != nil {
		t.Fatal(err)
	}
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return &stubSolver{name: "stub"} })
	m, err := New(Config{Engine: newTestEngine(t, reg, nil), DefaultSolver: "stub", Workers: 1, QueueDepth: 4, Store: store})
	if err != nil {
		t.Fatalf("manager did not start over a corrupt record: %v", err)
	}
	defer m.Close(context.Background())
	if _, err := m.Get("abc123"); err != nil {
		t.Fatalf("good record not restored: %v", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("corrupt record still at %s (stat err %v)", bad, err)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("corrupt record not quarantined: %v", err)
	}
	records, err := store.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || records[0].Snapshot.ID != "abc123" {
		t.Fatalf("LoadAll after quarantine = %+v, want only the good record", records)
	}
}

// TestPendingCountDrainsToZero keeps the queue busy with jobs that idle
// workers dequeue the instant they are queued. Once all are done the
// tenant's pending count must be zero again: a worker's decrement must never
// be lost to a race with Submit's increment, or the phantom count would eat
// into the tenant's job quota for good.
func TestPendingCountDrainsToZero(t *testing.T) {
	m := newTestManager(t, &stubSolver{name: "stub"}, func(c *Config) {
		c.Workers = 4
		c.QueueDepth = 64
	})
	var ids []string
	for i := 0; i < 1000; i++ {
		s, err := m.Submit(Request{Instance: testInstance()})
		if errors.Is(err, ErrQueueFull) {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	for _, id := range ids {
		waitDone(t, m, id)
	}
	m.mu.Lock()
	n := m.queuedFor(engine.DefaultTenant)
	m.mu.Unlock()
	if n != 0 {
		t.Fatalf("pending count %d after every job finished, want 0", n)
	}
}
