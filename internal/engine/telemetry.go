package engine

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/solver"
	"crsharing/internal/stats"
	"crsharing/internal/wire"
)

// Telemetry is the structured account of one solve request, assembled by the
// engine for every request regardless of which surface (HTTP sync, batch,
// job worker, CLI) submitted it. It extends solver.Stats with the quantities
// the serving and load layers report: where the answer came from, how much
// search effort it took, which lower bound anchored the quality ratio, and
// what the schedule looks like. It serialises directly into API responses,
// job records and the crload report.
type Telemetry struct {
	// Solver is the registry name the request resolved to (e.g. "portfolio").
	Solver string `json:"solver"`
	// Tenant is the tenant the request was admitted and accounted under.
	Tenant string `json:"tenant,omitempty"`
	// Winner is the solver that actually produced the schedule: the winning
	// member for a portfolio, the solver itself otherwise. Empty for solvers
	// that do not report stats.
	Winner string `json:"winner,omitempty"`
	// Algorithm is the algorithm that produced the schedule; for a portfolio
	// win it reads "member (via portfolio)".
	Algorithm string `json:"algorithm"`
	// Source reports how the result was obtained: "solve", "cache" or
	// "coalesced".
	Source string `json:"source"`
	// ElapsedMS is the wall-clock of the solve that produced the result. For
	// cache and coalesced answers it replays the original solve's duration.
	ElapsedMS float64 `json:"elapsed_ms"`
	// QueueMS is the time THIS request spent waiting for an admission slot;
	// zero for cache hits (they bypass admission entirely).
	QueueMS float64 `json:"queue_ms"`
	// Nodes counts the search nodes (branch-and-bound) or configurations
	// (enumeration) explored by the solve, summed over nested kernels and
	// portfolio members; zero for pure heuristics.
	Nodes int64 `json:"nodes"`
	// Incumbents counts the improving solutions reported while the solve ran.
	Incumbents int64 `json:"incumbents"`
	// KernelAllocs counts heap-allocation events on the search kernels' hot
	// path (scratch-arena growth); a steady-state exact solve reports zero
	// or near-zero. AllocsPerNode is KernelAllocs / Nodes — the headline
	// number for the allocation-free search kernels.
	KernelAllocs  int64   `json:"kernel_allocs"`
	AllocsPerNode float64 `json:"allocs_per_node"`
	// Makespan is the schedule's makespan in steps.
	Makespan int `json:"makespan"`
	// LowerBound is the best instance lower bound (core.LowerBounds), and
	// LowerBoundKind names which bound it is ("work" or "chain").
	LowerBound     int    `json:"lower_bound"`
	LowerBoundKind string `json:"lower_bound_kind"`
	// Ratio is Makespan / LowerBound (1 when the bound is zero).
	Ratio float64 `json:"ratio"`
	// Steps is the number of steps in the returned schedule (= Makespan,
	// since a schedule ends at the step that finishes its last job; kept
	// separate so padding bugs are visible).
	Steps int `json:"steps"`
	// Wasted is the schedule's total wasted resource.
	Wasted float64 `json:"wasted"`
	// Properties lists the Section-4 structural properties of the schedule.
	Properties string `json:"properties"`
	// WarmStart is "request" when this request's own solve accepted the
	// request's warm-start hint; empty when the solve ran cold or the answer
	// was replayed from the cache. SeedMakespan is the validated makespan of
	// the accepted hint.
	WarmStart    string `json:"warm_start,omitempty"`
	SeedMakespan int    `json:"seed_makespan,omitempty"`
}

// AppendJSON appends the telemetry's JSON encoding to b, byte for byte
// what encoding/json produces for it. ok is false, with b returned
// unchanged, when a float is NaN or infinite: encoding/json refuses those,
// and the caller should let it produce its error.
func (t *Telemetry) AppendJSON(b []byte) (_ []byte, ok bool) {
	if !wire.Finite(t.ElapsedMS) || !wire.Finite(t.QueueMS) || !wire.Finite(t.AllocsPerNode) ||
		!wire.Finite(t.Ratio) || !wire.Finite(t.Wasted) {
		return b, false
	}
	b = append(b, `{"solver":`...)
	b = wire.AppendString(b, t.Solver)
	if t.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = wire.AppendString(b, t.Tenant)
	}
	if t.Winner != "" {
		b = append(b, `,"winner":`...)
		b = wire.AppendString(b, t.Winner)
	}
	b = append(b, `,"algorithm":`...)
	b = wire.AppendString(b, t.Algorithm)
	b = append(b, `,"source":`...)
	b = wire.AppendString(b, t.Source)
	b = append(b, `,"elapsed_ms":`...)
	b = wire.AppendFloat(b, t.ElapsedMS)
	b = append(b, `,"queue_ms":`...)
	b = wire.AppendFloat(b, t.QueueMS)
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, t.Nodes, 10)
	b = append(b, `,"incumbents":`...)
	b = strconv.AppendInt(b, t.Incumbents, 10)
	b = append(b, `,"kernel_allocs":`...)
	b = strconv.AppendInt(b, t.KernelAllocs, 10)
	b = append(b, `,"allocs_per_node":`...)
	b = wire.AppendFloat(b, t.AllocsPerNode)
	b = append(b, `,"makespan":`...)
	b = strconv.AppendInt(b, int64(t.Makespan), 10)
	b = append(b, `,"lower_bound":`...)
	b = strconv.AppendInt(b, int64(t.LowerBound), 10)
	b = append(b, `,"lower_bound_kind":`...)
	b = wire.AppendString(b, t.LowerBoundKind)
	b = append(b, `,"ratio":`...)
	b = wire.AppendFloat(b, t.Ratio)
	b = append(b, `,"steps":`...)
	b = strconv.AppendInt(b, int64(t.Steps), 10)
	b = append(b, `,"wasted":`...)
	b = wire.AppendFloat(b, t.Wasted)
	b = append(b, `,"properties":`...)
	b = wire.AppendString(b, t.Properties)
	if t.WarmStart != "" {
		b = append(b, `,"warm_start":`...)
		b = wire.AppendString(b, t.WarmStart)
	}
	if t.SeedMakespan != 0 {
		b = append(b, `,"seed_makespan":`...)
		b = strconv.AppendInt(b, int64(t.SeedMakespan), 10)
	}
	return append(b, '}'), true
}

// newTelemetry assembles the telemetry of one finished solve.
func newTelemetry(solverName string, ev *solver.Evaluation, src solver.Source, inst *core.Instance, queued time.Duration) Telemetry {
	bounds := inst.Bounds()
	t := Telemetry{
		Solver:         solverName,
		Winner:         ev.Stats.Winner,
		Algorithm:      ev.Algorithm,
		Source:         string(src),
		ElapsedMS:      float64(ev.Stats.Elapsed) / float64(time.Millisecond),
		QueueMS:        float64(queued) / float64(time.Millisecond),
		Nodes:          ev.Stats.Nodes,
		Incumbents:     ev.Stats.Incumbents,
		KernelAllocs:   ev.Stats.KernelAllocs,
		Makespan:       ev.Makespan,
		LowerBound:     ev.LowerBound,
		LowerBoundKind: bounds.Kind(),
		Ratio:          ev.Ratio,
		Wasted:         ev.Wasted,
		Properties:     ev.Properties.String(),
	}
	if ev.Schedule != nil {
		t.Steps = ev.Schedule.Steps()
	}
	if t.Nodes > 0 {
		t.AllocsPerNode = float64(t.KernelAllocs) / float64(t.Nodes)
	}
	return t
}

// atomicFloat is an atomic float64 accumulator (CAS on the bit pattern).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, neu) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// metrics aggregates the engine's solve accounting; Snapshot freezes it for
// the /metrics endpoint and tests.
type metrics struct {
	sourceSolve     atomic.Uint64
	sourceCache     atomic.Uint64
	sourceCoalesced atomic.Uint64
	errorsTotal     atomic.Uint64
	shedTotal       atomic.Uint64
	warmStarts      atomic.Uint64
	nodesTotal      atomic.Int64
	incumbentsTotal atomic.Int64
	queueSeconds    atomicFloat

	// hmu guards the two histograms of fresh solves.
	hmu          sync.Mutex
	solveSeconds *stats.Histogram
	solveNodes   *stats.Histogram

	tmu     sync.Mutex
	tenants map[string]*tenantCounters
}

// tenantCounters is the per-tenant slice of the solve accounting.
type tenantCounters struct {
	requests     atomic.Uint64
	shed         atomic.Uint64
	errors       atomic.Uint64
	queueSeconds atomicFloat
}

// tenant returns (creating on demand) the counters of a tenant.
func (m *metrics) tenant(name string) *tenantCounters {
	m.tmu.Lock()
	defer m.tmu.Unlock()
	tc, ok := m.tenants[name]
	if !ok {
		tc = &tenantCounters{}
		m.tenants[name] = tc
	}
	return tc
}

// TenantSnapshot is the frozen per-tenant accounting: the completed-request
// counters plus the scheduler's live admission gauges.
type TenantSnapshot struct {
	// Requests counts finished requests of the tenant, whatever the outcome.
	Requests uint64
	// Shed counts requests refused with ErrShed (quota rejections); sheds are
	// not double-counted under Errors.
	Shed uint64
	// Errors counts failed requests other than sheds.
	Errors uint64
	// QueueSeconds is the total admission wait of the tenant's requests.
	QueueSeconds float64
	// Inflight / Queued are the live scheduler gauges.
	Inflight int64
	Queued   int
}

// Snapshot is a point-in-time copy of the engine's aggregate telemetry.
type Snapshot struct {
	// SourceSolve / SourceCache / SourceCoalesced count completed solve
	// requests by where their answer came from.
	SourceSolve     uint64
	SourceCache     uint64
	SourceCoalesced uint64
	// Errors counts failed solve requests (including deadline expiries but
	// not sheds — those are counted under Shed, keeping quota rejections
	// distinct from genuine failures).
	Errors uint64
	// Shed counts requests refused over quota with ErrShed.
	Shed uint64
	// WarmStarts counts fresh solves that accepted a request's warm-start
	// hint.
	WarmStarts uint64
	// NodesTotal / IncumbentsTotal sum the per-solve search telemetry of
	// fresh solves (cache replays are not double-counted).
	NodesTotal      int64
	IncumbentsTotal int64
	// QueueSeconds is the total time requests spent waiting for admission.
	QueueSeconds float64
	// Inflight is the number of solves currently admitted; Waiting the
	// queued acquirers.
	Inflight int64
	Waiting  int
	// SolveSeconds / SolveNodes are the per-fresh-solve duration and
	// search-size distributions, copied at the snapshot.
	SolveSeconds *stats.Histogram
	SolveNodes   *stats.Histogram
	// Tenants is the per-tenant accounting, keyed by tenant name.
	Tenants map[string]TenantSnapshot
}

// solveSecondsBuckets spans sub-millisecond heuristic solves up to the 2m
// default deadline ceiling.
var solveSecondsBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 120}

// solveNodesBuckets spans trivial instances up to the default node limit.
var solveNodesBuckets = []float64{1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

func newMetrics() *metrics {
	return &metrics{
		solveSeconds: stats.NewHistogram(solveSecondsBuckets),
		solveNodes:   stats.NewHistogram(solveNodesBuckets),
		tenants:      make(map[string]*tenantCounters),
	}
}

// observe records one finished request. Only fresh solves contribute to the
// node totals and histograms: cached answers replay stats that were already
// counted when the original solve ran. Sheds (quota rejections) are counted
// distinctly from errors, globally and per tenant, so admission keeps the
// shed-not-queue honesty of the load report: a refused request is neither a
// failure of the solver nor silently dropped.
func (m *metrics) observe(tenant string, src solver.Source, ev *solver.Evaluation, err error, queued time.Duration) {
	m.queueSeconds.Add(queued.Seconds())
	tc := m.tenant(tenant)
	tc.requests.Add(1)
	tc.queueSeconds.Add(queued.Seconds())
	if err != nil {
		var shed *ErrShed
		if errors.As(err, &shed) {
			m.shedTotal.Add(1)
			tc.shed.Add(1)
			return
		}
		m.errorsTotal.Add(1)
		tc.errors.Add(1)
		return
	}
	switch src {
	case solver.SourceCache:
		m.sourceCache.Add(1)
	case solver.SourceCoalesced:
		m.sourceCoalesced.Add(1)
	default:
		m.sourceSolve.Add(1)
		m.nodesTotal.Add(ev.Stats.Nodes)
		m.incumbentsTotal.Add(ev.Stats.Incumbents)
		m.hmu.Lock()
		m.solveSeconds.Add(ev.Stats.Elapsed.Seconds())
		m.solveNodes.Add(float64(ev.Stats.Nodes))
		m.hmu.Unlock()
	}
}

// observeShed accounts a quota rejection raised outside the solve pipeline
// (the job manager's per-tenant pending bound).
func (m *metrics) observeShed(tenant string) {
	m.shedTotal.Add(1)
	tc := m.tenant(tenant)
	tc.requests.Add(1)
	tc.shed.Add(1)
}

// Snapshot returns the engine's aggregate solve telemetry.
func (e *Engine) Snapshot() Snapshot {
	snap := Snapshot{
		SourceSolve:     e.met.sourceSolve.Load(),
		SourceCache:     e.met.sourceCache.Load(),
		SourceCoalesced: e.met.sourceCoalesced.Load(),
		Errors:          e.met.errorsTotal.Load(),
		Shed:            e.met.shedTotal.Load(),
		WarmStarts:      e.met.warmStarts.Load(),
		NodesTotal:      e.met.nodesTotal.Load(),
		IncumbentsTotal: e.met.incumbentsTotal.Load(),
		QueueSeconds:    e.met.queueSeconds.Load(),
		Inflight:        e.sem.InUse(),
		Waiting:         e.sem.Waiting(),
		Tenants:         make(map[string]TenantSnapshot),
	}
	e.met.hmu.Lock()
	snap.SolveSeconds = e.met.solveSeconds.Clone()
	snap.SolveNodes = e.met.solveNodes.Clone()
	e.met.hmu.Unlock()
	e.met.tmu.Lock()
	for name, tc := range e.met.tenants {
		snap.Tenants[name] = TenantSnapshot{
			Requests:     tc.requests.Load(),
			Shed:         tc.shed.Load(),
			Errors:       tc.errors.Load(),
			QueueSeconds: tc.queueSeconds.Load(),
		}
	}
	e.met.tmu.Unlock()
	for name, g := range e.sem.Gauges() {
		ts := snap.Tenants[name]
		ts.Inflight, ts.Queued = g.Inflight, g.Queued
		snap.Tenants[name] = ts
	}
	return snap
}
