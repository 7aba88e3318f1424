// Package jobs is the asynchronous solve subsystem: a bounded work queue
// drained by a configurable worker pool, durable job records with progress
// snapshots, and an optional on-disk store so completed schedules survive
// restarts.
//
// The synchronous serving path (internal/service POST /v1/solve) rejects any
// instance that cannot be solved within the HTTP deadline; this package makes
// those instances servable. A submitted job moves through
//
//	pending -> running -> done | failed | cancelled
//
// and every transition (plus each improving incumbent reported by the solver
// through internal/progress) is delivered to subscribers, which the HTTP
// layer exposes as a server-sent-event stream. Worker solves are submitted
// to the shared internal/engine pipeline, so they draw from the same global
// admission budget and memo cache as the synchronous path: an async result
// warms the cache for later synchronous requests and vice versa, and a burst
// of heavy jobs queues behind the same concurrency cap instead of
// oversubscribing the machine.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/progress"
)

// State is a job lifecycle state.
type State string

const (
	// StatePending marks a job accepted into the queue but not yet started.
	StatePending State = "pending"
	// StateRunning marks a job currently held by a worker.
	StateRunning State = "running"
	// StateDone marks a job that finished with a valid evaluation.
	StateDone State = "done"
	// StateFailed marks a job whose solve errored or exceeded its budget.
	StateFailed State = "failed"
	// StateCancelled marks a job cancelled by the client or by shutdown.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Valid reports whether s is one of the five lifecycle states.
func (s State) Valid() bool {
	switch s {
	case StatePending, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Request describes one asynchronous solve.
type Request struct {
	// Solver selects a registry entry; empty uses the manager's default.
	Solver string `json:"solver,omitempty"`
	// Instance is the instance to solve.
	Instance *core.Instance `json:"instance"`
	// Timeout bounds the solve once it starts running (queueing time does
	// not count). Zero uses the manager default; values above the manager
	// maximum are clamped.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Tenant is the tenant the job is accounted under: its solve is admitted
	// under the tenant's fair-scheduler quota, and the tenant's MaxQueued
	// bound also caps how many of its jobs may sit in the queue at once
	// (rejections are engine.ErrShed, mapped to 429 by the HTTP surface).
	// Empty means the default tenant.
	Tenant string `json:"tenant,omitempty"`
}

// Incumbent is one improving solution observed while a job was running.
type Incumbent struct {
	// Solver names the (possibly nested) solver that found the solution.
	Solver string `json:"solver"`
	// Makespan is the solution's makespan; within one job the recorded
	// sequence is strictly decreasing.
	Makespan int `json:"makespan"`
	// ElapsedMS is the time since the job started running.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Result is the completed evaluation of a done job, in a form that
// serialises cleanly to JSON for the API and the on-disk store.
type Result struct {
	Algorithm  string  `json:"algorithm"`
	Source     string  `json:"source"`
	Makespan   int     `json:"makespan"`
	LowerBound int     `json:"lower_bound"`
	Ratio      float64 `json:"ratio"`
	Wasted     float64 `json:"wasted"`
	Properties string  `json:"properties"`
	// ElapsedMS is the wall-clock of the solve that produced the result; for
	// cache hits it replays the original solve's duration.
	ElapsedMS float64        `json:"elapsed_ms"`
	Schedule  *core.Schedule `json:"schedule,omitempty"`
	// Telemetry is the engine's structured account of the solve: search
	// nodes, incumbents, cache source, admission queueing and schedule shape.
	Telemetry *engine.Telemetry `json:"telemetry,omitempty"`
}

// Snapshot is the externally visible record of a job at one point in time.
type Snapshot struct {
	ID          string      `json:"id"`
	State       State       `json:"state"`
	Solver      string      `json:"solver"`
	Tenant      string      `json:"tenant,omitempty"`
	Fingerprint string      `json:"fingerprint"`
	Submitted   time.Time   `json:"submitted"`
	Started     time.Time   `json:"started,omitzero"`
	Finished    time.Time   `json:"finished,omitzero"`
	Incumbents  []Incumbent `json:"incumbents,omitempty"`
	Result      *Result     `json:"result,omitempty"`
	Error       string      `json:"error,omitempty"`
}

// clone returns a copy safe to hand to callers while the job keeps mutating:
// the incumbent slice is copied, the result and schedule are immutable once
// set.
func (s *Snapshot) clone() Snapshot {
	out := *s
	out.Incumbents = append([]Incumbent(nil), s.Incumbents...)
	return out
}

// EventType distinguishes the two kinds of job events.
type EventType string

const (
	// EventState signals a lifecycle transition; Event.State is the new state.
	EventState EventType = "state"
	// EventIncumbent signals an improving solution; Event.Incumbent is set.
	EventIncumbent EventType = "incumbent"
)

// Event is one notification delivered to a job's subscribers.
type Event struct {
	Type  EventType `json:"type"`
	JobID string    `json:"job_id"`
	State State     `json:"state"`
	// Incumbent is set for EventIncumbent events.
	Incumbent *Incumbent `json:"incumbent,omitempty"`
	// Telemetry is set on the terminal event of done jobs: the engine's
	// structured account of the finished solve, so SSE consumers need not
	// re-fetch the record to see how the answer was produced.
	Telemetry *engine.Telemetry `json:"telemetry,omitempty"`
	// Error is set on the terminal event of failed and cancelled jobs.
	Error string `json:"error,omitempty"`
}

// Stats is a snapshot of the manager's counters for the metrics endpoint.
type Stats struct {
	// QueueDepth is the number of jobs waiting in the queue right now.
	QueueDepth int
	// QueueCapacity is the queue's bound.
	QueueCapacity int
	// Running is the number of jobs currently held by workers.
	Running int
	// Workers is the size of the worker pool.
	Workers   int
	Submitted uint64
	Done      uint64
	Failed    uint64
	Cancelled uint64
}

// Errors returned by the manager, distinguished by the HTTP layer.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrQueueFull reports a submit rejected because the queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrClosed reports a submit after Close.
	ErrClosed = errors.New("jobs: manager is shut down")
)

// Config configures a Manager. Zero values of optional fields take the
// documented defaults.
type Config struct {
	// Engine is the solve pipeline the workers submit to; required. Share
	// one engine with the synchronous serving layer so job solves draw from
	// the same global admission budget and memo cache.
	Engine *engine.Engine
	// DefaultSolver is used when a request names none (default: the
	// engine's default solver).
	DefaultSolver string
	// Workers is the worker pool size (default 4).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (default 256).
	QueueDepth int
	// DefaultTimeout bounds jobs that request no timeout (default 10m).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts (default 1h).
	MaxTimeout time.Duration
	// Store, when non-nil, persists job records: terminal records at
	// completion, pending records at submit and shutdown. On startup every
	// stored terminal record is served without re-solving and every stored
	// non-terminal record is re-enqueued.
	Store Store
	// MaxRecords bounds the total job records held in memory (default 4096).
	// When exceeded, the oldest terminal records are evicted — and deleted
	// from the store — so a long-running server cannot grow without bound;
	// non-terminal jobs are never evicted.
	MaxRecords int
}

// job is the manager's internal record.
type job struct {
	mu   sync.Mutex
	snap Snapshot
	req  Request
	fp   core.Fingerprint
	// cancel interrupts the running solve; set while running.
	cancel context.CancelFunc
	// cancelRequested distinguishes a client cancel from a deadline.
	cancelRequested bool
	// shutdown marks jobs interrupted by Manager.Close.
	shutdown bool
	subs     map[chan Event]struct{}
	// done is closed when the job reaches a terminal state.
	done chan struct{}
}

// Manager owns the queue, the worker pool and the job records. Create one
// with New; it is safe for concurrent use.
type Manager struct {
	cfg   Config
	queue chan *job

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for stable listing
	closing bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workers    sync.WaitGroup

	submitted atomic.Uint64
	done      atomic.Uint64
	failed    atomic.Uint64
	cancelled atomic.Uint64
	running   atomic.Int64
	// queued counts jobs in state pending. It — not the channel capacity —
	// enforces the QueueDepth admission bound, so cancelling a queued job
	// frees its slot immediately even though the stale *job stays in the
	// channel until a worker drains it.
	queued atomic.Int64
	// pendingByTenant slices the queued counter per tenant: the engine's
	// per-tenant MaxQueued quota also bounds each tenant's share of the job
	// queue, so one tenant cannot fill it. Guarded by pendingMu (not m.mu:
	// run decrements without the manager lock).
	pendingMu       sync.Mutex
	pendingByTenant map[string]int
}

// pendingAdd moves a tenant's pending-job count by delta and returns the new
// value.
func (m *Manager) pendingAdd(tenant string, delta int) int {
	m.pendingMu.Lock()
	defer m.pendingMu.Unlock()
	n := m.pendingByTenant[tenant] + delta
	if n <= 0 {
		delete(m.pendingByTenant, tenant)
		return 0
	}
	m.pendingByTenant[tenant] = n
	return n
}

// pendingOf returns a tenant's current pending-job count.
func (m *Manager) pendingOf(tenant string) int {
	m.pendingMu.Lock()
	defer m.pendingMu.Unlock()
	return m.pendingByTenant[tenant]
}

// New validates the configuration, restores any stored records and starts
// the worker pool.
func New(cfg Config) (*Manager, error) {
	if cfg.Engine == nil {
		return nil, errors.New("jobs: Config.Engine is required")
	}
	if cfg.DefaultSolver == "" {
		cfg.DefaultSolver = cfg.Engine.DefaultSolver()
	}
	if _, err := cfg.Engine.ResolveSolver(cfg.DefaultSolver); err != nil {
		return nil, fmt.Errorf("jobs: default solver: %w", err)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = time.Hour
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = 4096
	}

	m := &Manager{cfg: cfg, jobs: make(map[string]*job), pendingByTenant: make(map[string]int)}
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())

	var restored []*job
	if cfg.Store != nil {
		records, err := cfg.Store.LoadAll()
		if err != nil {
			return nil, fmt.Errorf("jobs: restoring store: %w", err)
		}
		sort.Slice(records, func(i, j int) bool {
			a, b := records[i].Snapshot, records[j].Snapshot
			if !a.Submitted.Equal(b.Submitted) {
				return a.Submitted.Before(b.Submitted)
			}
			return a.ID < b.ID
		})
		for _, rec := range records {
			j := &job{snap: rec.Snapshot, req: rec.Request, subs: make(map[chan Event]struct{}), done: make(chan struct{})}
			switch {
			case j.snap.State.Terminal():
				close(j.done)
			case j.req.Instance == nil || j.req.Instance.Validate() != nil:
				// A non-terminal record without a solvable instance (truncated
				// or hand-edited store file) is quarantined as failed rather
				// than handed to a worker — or worse, dropped silently.
				j.snap.State = StateFailed
				j.snap.Finished = time.Now().UTC()
				j.snap.Error = "restored record has no valid instance"
				close(j.done)
			default:
				// A pending or mid-run job from a previous process starts
				// over: back to pending, progress cleared.
				j.snap.State = StatePending
				j.snap.Started, j.snap.Finished = time.Time{}, time.Time{}
				j.snap.Incumbents, j.snap.Error = nil, ""
				if j.req.Tenant == "" {
					j.req.Tenant = engine.DefaultTenant
					j.snap.Tenant = engine.DefaultTenant
				}
				j.fp = j.req.Instance.Fingerprint()
				restored = append(restored, j)
			}
			m.jobs[j.snap.ID] = j
			m.order = append(m.order, j.snap.ID)
		}
	}
	m.evict()

	// The channel is transport only; the admission bound is the queued
	// counter checked in Submit. It is sized with headroom — twice the depth,
	// because jobs cancelled while queued keep their slot until a worker
	// drains them, plus every restored job so restoration can never deadlock
	// on its own queue.
	m.queue = make(chan *job, 2*cfg.QueueDepth+len(restored))
	for _, j := range restored {
		m.queued.Add(1)
		m.pendingAdd(j.req.Tenant, 1)
		m.queue <- j
	}

	for w := 0; w < cfg.Workers; w++ {
		m.workers.Add(1)
		go func() {
			defer m.workers.Done()
			for j := range m.queue {
				m.run(j)
			}
		}()
	}
	return m, nil
}

// Submit validates the request, assigns an ID and enqueues the job. It
// returns ErrQueueFull without enqueueing when the queue is at capacity and
// ErrClosed after Close.
func (m *Manager) Submit(req Request) (Snapshot, error) {
	if req.Instance == nil {
		return Snapshot{}, errors.New("jobs: missing instance")
	}
	if err := req.Instance.Validate(); err != nil {
		return Snapshot{}, err
	}
	if req.Solver == "" {
		req.Solver = m.cfg.DefaultSolver
	}
	if _, err := m.cfg.Engine.ResolveSolver(req.Solver); err != nil {
		return Snapshot{}, err
	}
	if req.Timeout <= 0 {
		req.Timeout = m.cfg.DefaultTimeout
	}
	if req.Timeout > m.cfg.MaxTimeout {
		req.Timeout = m.cfg.MaxTimeout
	}
	if req.Tenant == "" {
		req.Tenant = engine.DefaultTenant
	}
	// The tenant's MaxQueued quota bounds its share of the job queue the same
	// way it bounds its admission queue; an over-quota submit is shed (a
	// typed 429-with-Retry-After refusal), not an ErrQueueFull (the global
	// bound below).
	if quota := m.cfg.Engine.Tenant(req.Tenant).MaxQueued; m.pendingOf(req.Tenant) >= quota {
		return Snapshot{}, fmt.Errorf("jobs: %w", m.cfg.Engine.Shed(req.Tenant, fmt.Sprintf("job queue quota (%d pending)", quota)))
	}
	req.Instance = req.Instance.Clone() // detach from the caller

	j := &job{
		req:  req,
		fp:   req.Instance.Fingerprint(),
		subs: make(map[chan Event]struct{}),
		done: make(chan struct{}),
	}
	j.snap = Snapshot{
		ID:          newID(),
		State:       StatePending,
		Solver:      req.Solver,
		Tenant:      req.Tenant,
		Fingerprint: j.fp.String(),
		Submitted:   time.Now().UTC(),
	}

	// Clone before the job becomes visible to workers: once queued, only
	// j.mu-holding code may touch j.snap.
	snap := j.snap.clone()

	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	if m.queued.Load() >= int64(m.cfg.QueueDepth) {
		m.mu.Unlock()
		return Snapshot{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
	// Count the job before a worker can see it: a worker that dequeues it
	// at once decrements these, and a decrement that landed first would be
	// clamped away, leaving a phantom pending job on the tenant's quota.
	m.queued.Add(1)
	m.pendingAdd(req.Tenant, 1)
	select {
	case m.queue <- j:
	default:
		// The channel can lag the counter while cancelled-but-queued jobs
		// wait for a worker to drain them.
		m.queued.Add(-1)
		m.pendingAdd(req.Tenant, -1)
		m.mu.Unlock()
		return Snapshot{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
	m.jobs[snap.ID] = j
	m.order = append(m.order, snap.ID)
	m.mu.Unlock()

	m.submitted.Add(1)
	m.persist(j)
	return snap, nil
}

// run executes one dequeued job. Jobs cancelled while queued are skipped;
// jobs dequeued during shutdown stay pending so Close checkpoints them.
func (m *Manager) run(j *job) {
	j.mu.Lock()
	if j.snap.State != StatePending {
		j.mu.Unlock()
		return
	}
	if m.baseCtx.Err() != nil && !j.cancelRequested {
		// Shutdown already started: leave the job pending for checkpointing.
		j.mu.Unlock()
		return
	}
	// The cancel handle interrupts the running solve (client cancel or
	// shutdown); the solve budget itself is applied by the engine, which
	// clamps against the manager's limits rather than the much tighter
	// synchronous ones.
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	j.cancel = cancel
	j.snap.State = StateRunning
	j.snap.Started = time.Now().UTC()
	start := time.Now()
	j.mu.Unlock()
	m.queued.Add(-1)
	m.pendingAdd(j.req.Tenant, -1)

	m.running.Add(1)
	defer m.running.Add(-1)
	m.notify(j, Event{Type: EventState, JobID: j.snap.ID, State: StateRunning})

	limits := engine.Limits{Default: m.cfg.DefaultTimeout, Max: m.cfg.MaxTimeout}
	res, err := m.cfg.Engine.Solve(ctx, engine.Request{
		Solver:      j.snap.Solver,
		Instance:    j.req.Instance,
		Fingerprint: &j.fp,
		Timeout:     j.req.Timeout,
		Tenant:      j.req.Tenant,
		Limits:      &limits,
		Observer: func(inc progress.Incumbent) {
			m.observe(j, start, inc)
		},
	})

	j.mu.Lock()
	j.cancel = nil
	j.snap.Finished = time.Now().UTC()
	ctxErr := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	var counter *atomic.Uint64
	var doneTelemetry *engine.Telemetry
	switch {
	case err == nil:
		ev := res.Evaluation
		tel := res.Telemetry
		j.snap.State = StateDone
		j.snap.Result = &Result{
			Algorithm:  ev.Algorithm,
			Source:     string(res.Source),
			Makespan:   ev.Makespan,
			LowerBound: ev.LowerBound,
			Ratio:      ev.Ratio,
			Wasted:     ev.Wasted,
			Properties: ev.Properties.String(),
			ElapsedMS:  float64(ev.Stats.Elapsed) / float64(time.Millisecond),
			Schedule:   ev.Schedule,
			Telemetry:  &tel,
		}
		doneTelemetry = &tel
		counter = &m.done
	case j.cancelRequested && ctxErr:
		j.snap.State = StateCancelled
		j.snap.Error = "cancelled by client"
		counter = &m.cancelled
	case m.baseCtx.Err() != nil && ctxErr:
		j.snap.State = StateCancelled
		j.snap.Error = "cancelled by shutdown"
		j.shutdown = true
		counter = &m.cancelled
	case errors.Is(err, context.DeadlineExceeded):
		j.snap.State = StateFailed
		j.snap.Error = fmt.Sprintf("solve exceeded its %s budget", j.req.Timeout)
		counter = &m.failed
	default:
		j.snap.State = StateFailed
		j.snap.Error = err.Error()
		counter = &m.failed
	}
	snap := j.snap.clone()
	j.mu.Unlock()

	counter.Add(1)
	m.persist(j)
	// Retention runs before finish releases waiters, so a caller whose Wait
	// returned already sees the bounded record set.
	m.evict()
	m.finish(j, Event{Type: EventState, JobID: snap.ID, State: snap.State, Telemetry: doneTelemetry, Error: snap.Error})
}

// observe records a solver-reported incumbent on the job and fans it out.
// Only strictly improving makespans are kept, so the recorded sequence is
// monotone even when portfolio members race.
func (m *Manager) observe(j *job, start time.Time, inc progress.Incumbent) {
	j.mu.Lock()
	if n := len(j.snap.Incumbents); n > 0 && inc.Makespan >= j.snap.Incumbents[n-1].Makespan {
		j.mu.Unlock()
		return
	}
	rec := Incumbent{
		Solver:    inc.Solver,
		Makespan:  inc.Makespan,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	j.snap.Incumbents = append(j.snap.Incumbents, rec)
	state := j.snap.State
	id := j.snap.ID
	j.mu.Unlock()
	m.notify(j, Event{Type: EventIncumbent, JobID: id, State: state, Incumbent: &rec})
}

// evict drops the oldest terminal records (memory and store) once the
// record count exceeds MaxRecords; non-terminal jobs are never evicted. It
// takes per-job locks while holding the manager lock — the lock order
// everywhere is m.mu before j.mu, never the reverse.
func (m *Manager) evict() {
	var victims []string
	m.mu.Lock()
	if over := len(m.jobs) - m.cfg.MaxRecords; over > 0 {
		kept := m.order[:0]
		for _, id := range m.order {
			j, ok := m.jobs[id]
			if !ok {
				continue
			}
			evictable := false
			if over > 0 {
				j.mu.Lock()
				evictable = j.snap.State.Terminal()
				j.mu.Unlock()
			}
			if evictable {
				delete(m.jobs, id)
				victims = append(victims, id)
				over--
				continue
			}
			kept = append(kept, id)
		}
		m.order = kept
	}
	m.mu.Unlock()
	if m.cfg.Store != nil {
		for _, id := range victims {
			// Best-effort: a record that outlives eviction only costs one
			// startup reload, after which eviction removes it again.
			_ = m.cfg.Store.Delete(id)
		}
	}
}

// notify delivers ev to every subscriber without blocking: a subscriber
// whose buffer is full misses the event (SSE consumers re-sync from the
// snapshot, so lossy delivery is acceptable).
func (m *Manager) notify(j *job, ev Event) {
	j.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// finish delivers the terminal event, closes every subscriber channel and
// releases waiters.
func (m *Manager) finish(j *job, ev Event) {
	j.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
		close(ch)
	}
	j.subs = make(map[chan Event]struct{})
	j.mu.Unlock()
	close(j.done)
}

// persist writes the job's current snapshot (plus the request, for
// re-enqueueing) to the store, if one is configured. It holds the job lock
// across the write, serialising persists per job so a stale snapshot can
// never overwrite a newer one (e.g. Submit's pending record racing the
// worker's terminal record). Store errors are recorded on the job rather
// than failing the solve.
func (m *Manager) persist(j *job) {
	if m.cfg.Store == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := m.cfg.Store.Save(Record{Snapshot: j.snap.clone(), Request: j.req}); err != nil {
		if j.snap.Error == "" {
			j.snap.Error = fmt.Sprintf("store: %v", err)
		}
	}
}

// Get returns the job's current snapshot.
func (m *Manager) Get(id string) (Snapshot, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap.clone(), nil
}

// List returns snapshots in submission order, optionally filtered by state
// (empty state lists everything).
func (m *Manager) List(state State) []Snapshot {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Snapshot, 0, len(ids))
	for _, id := range ids {
		j, err := m.lookup(id)
		if err != nil {
			continue
		}
		j.mu.Lock()
		if state == "" || j.snap.State == state {
			out = append(out, j.snap.clone())
		}
		j.mu.Unlock()
	}
	return out
}

// Cancel stops the job: a pending job transitions to cancelled immediately,
// a running job has its context cancelled and transitions once the solver
// returns, and a terminal job is left untouched. The returned snapshot
// reflects the state after the call (for a running job, still "running"
// until the solver yields).
func (m *Manager) Cancel(id string) (Snapshot, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	j.mu.Lock()
	switch {
	case j.snap.State == StatePending:
		j.cancelRequested = true
		j.snap.State = StateCancelled
		j.snap.Finished = time.Now().UTC()
		j.snap.Error = "cancelled by client"
		snap := j.snap.clone()
		j.mu.Unlock()
		m.queued.Add(-1) // the stale queue entry no longer counts against the bound
		m.pendingAdd(j.req.Tenant, -1)
		m.dropFromQueue(j)
		m.cancelled.Add(1)
		m.persist(j)
		m.evict()
		m.finish(j, Event{Type: EventState, JobID: snap.ID, State: StateCancelled, Error: snap.Error})
		return snap, nil
	case j.snap.State == StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	defer j.mu.Unlock()
	return j.snap.clone(), nil
}

// dropFromQueue removes a cancelled job's stale entry from the transport
// channel so it cannot accumulate against the channel's headroom while all
// workers are busy. It holds m.mu to park concurrent Submit sends; workers
// receiving concurrently only shrink the channel, so every other entry we
// pulled is guaranteed to fit back in.
func (m *Manager) dropFromQueue(victim *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return // Close owns the queue now
	}
	for n := len(m.queue); n > 0; n-- {
		select {
		case q := <-m.queue:
			if q != victim {
				m.queue <- q
			}
		default:
			return // a worker drained the rest first
		}
	}
}

// Wait blocks until the job reaches a terminal state, the manager is closed
// while the job is still pending (the returned snapshot is then
// non-terminal), or ctx expires.
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, error) {
	j, err := m.lookup(id)
	if err != nil {
		return Snapshot{}, err
	}
	select {
	case <-j.done:
		return m.Get(id)
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
}

// Subscribe returns the job's current snapshot and a channel of subsequent
// events. The channel is closed when the job reaches a terminal state (for
// an already-terminal job it is closed immediately); call the returned
// function to unsubscribe early. Events are delivered best-effort: a slow
// consumer may miss intermediate events but always observes the closure.
func (m *Manager) Subscribe(id string) (Snapshot, <-chan Event, func(), error) {
	j, err := m.lookup(id)
	if err != nil {
		return Snapshot{}, nil, nil, err
	}
	m.mu.Lock()
	closing := m.closing
	m.mu.Unlock()
	j.mu.Lock()
	snap := j.snap.clone()
	ch := make(chan Event, 16)
	if snap.State.Terminal() || closing {
		// Terminal jobs have no more events; neither do jobs on a closed
		// manager (checkpointed pending records get theirs at next start).
		close(ch)
		j.mu.Unlock()
		return snap, ch, func() {}, nil
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	unsub := func() {
		j.mu.Lock()
		if _, ok := j.subs[ch]; ok {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
	return snap, ch, unsub, nil
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		QueueDepth:    int(m.queued.Load()),
		QueueCapacity: m.cfg.QueueDepth,
		Running:       int(m.running.Load()),
		Workers:       m.cfg.Workers,
		Submitted:     m.submitted.Load(),
		Done:          m.done.Load(),
		Failed:        m.failed.Load(),
		Cancelled:     m.cancelled.Load(),
	}
}

// Close shuts the manager down: submits are rejected, running jobs are
// cancelled (state "cancelled", error "cancelled by shutdown"), and jobs
// still pending are checkpointed to the store — or marked cancelled when no
// store is configured. It waits for the workers until ctx expires.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil
	}
	m.closing = true
	m.mu.Unlock()

	m.baseCancel() // interrupts running jobs; makes workers skip pending ones
	close(m.queue)

	waited := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(waited)
	}()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		err = fmt.Errorf("jobs: shutdown interrupted: %w", ctx.Err())
	}

	// Checkpoint (or cancel) whatever is still pending.
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, id := range ids {
		j, lerr := m.lookup(id)
		if lerr != nil {
			continue
		}
		j.mu.Lock()
		if j.snap.State != StatePending {
			j.mu.Unlock()
			continue
		}
		if m.cfg.Store != nil {
			// Checkpointed: the record stays pending for the next start, but
			// this process is done with it — release Wait callers and
			// subscribers (they observe a non-terminal snapshot).
			snap := j.snap.clone()
			j.mu.Unlock()
			m.persist(j)
			m.finish(j, Event{Type: EventState, JobID: snap.ID, State: StatePending, Error: "checkpointed by shutdown"})
			continue
		}
		j.snap.State = StateCancelled
		j.snap.Finished = time.Now().UTC()
		j.snap.Error = "cancelled by shutdown"
		snap := j.snap.clone()
		j.mu.Unlock()
		m.cancelled.Add(1)
		m.finish(j, Event{Type: EventState, JobID: snap.ID, State: StateCancelled, Error: snap.Error})
	}
	return err
}

func (m *Manager) lookup(id string) (*job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// newID returns a 16-hex-character random job identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: reading random id: %v", err)) // crypto/rand does not fail on supported platforms
	}
	return hex.EncodeToString(b[:])
}
