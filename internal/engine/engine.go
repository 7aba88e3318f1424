// Package engine is the single solve pipeline of the scheduling system:
// every surface that wants an instance solved — the synchronous HTTP
// handlers, the batch fan-out, the asynchronous job workers, the CLIs and
// the load harness — submits a Request here instead of talking to the solver
// registry or the memo cache directly. The engine owns, in order, the full
// lifecycle of a solve request:
//
//  1. resolution — the solver name is resolved against the registry,
//  2. deadline clamping — the requested budget is resolved against the
//     caller's limits (sync and job surfaces have different ceilings),
//  3. cache routing — the request is answered from the shared memo cache or
//     coalesced onto an identical in-flight solve when possible,
//  4. admission — a fresh solve first acquires a slot of the global fair
//     scheduler, the one concurrency budget shared by every surface (before
//     this package existed, batch shards and job workers bypassed the
//     serving layer's semaphore entirely),
//  5. progress — the caller's incumbent observer is attached to the solve
//     context, and
//  6. telemetry — the finished request is accounted into a structured
//     Telemetry record (search nodes, incumbents, cache source, bounds,
//     schedule shape) and into the engine's aggregate metrics.
//
// The result is that "how a solve runs" is defined exactly once; the
// surfaces differ only in how they parse requests and render results.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/progress"
	"crsharing/internal/solver"
)

// Limits is a deadline policy: the default budget applied when a request
// asks for none, and the ceiling request-supplied budgets are clamped to.
type Limits struct {
	Default time.Duration
	Max     time.Duration
}

// Resolve maps a requested budget to the effective one under the policy.
func (l Limits) Resolve(d time.Duration) time.Duration {
	if d <= 0 {
		d = l.Default
	}
	if l.Max > 0 && d > l.Max {
		d = l.Max
	}
	return d
}

// NoDeadline, passed as Request.Timeout, disables the engine's per-request
// deadline entirely: the caller's context governs. The batch path uses it so
// one batch-wide deadline covers every shard instead of each shard getting
// its own default.
const NoDeadline time.Duration = -1

// Config configures an Engine. Zero values of optional fields take the
// documented defaults.
type Config struct {
	// Registry resolves solver names; required.
	Registry *solver.Registry
	// Cache is the shared memo cache; nil disables caching (every request
	// solves fresh).
	Cache *solver.Cache
	// DefaultSolver is used when a request names none (default "portfolio").
	DefaultSolver string
	// DefaultTimeout bounds requests that ask for none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied budgets (default 2m). Callers with
	// their own deadline policy (the job manager) override per request via
	// Request.Limits.
	MaxTimeout time.Duration
	// MaxConcurrent is the global admission budget: the number of solves
	// running at once across every surface (default 16).
	MaxConcurrent int
	// Tenants configures per-tenant admission quotas by tenant name. Tenants
	// not listed here run under the zero TenantConfig's defaults (weight 1,
	// inflight quota = MaxConcurrent, queue bound 16x MaxConcurrent,
	// priority 0).
	Tenants map[string]TenantConfig
	// ShedRetryAfter is the back-off hint carried by ErrShed rejections
	// (default 1s).
	ShedRetryAfter time.Duration
}

// Engine routes every solve of the process. Create one with New and share it
// between the serving layer, the job manager and any other solve surface; it
// is safe for concurrent use.
type Engine struct {
	cfg Config
	sem *fairScheduler
	met *metrics
}

// New validates the configuration, applies defaults and returns an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Registry == nil {
		return nil, errors.New("engine: Config.Registry is required")
	}
	if cfg.DefaultSolver == "" {
		cfg.DefaultSolver = "portfolio"
	}
	if _, err := cfg.Registry.New(cfg.DefaultSolver); err != nil {
		return nil, fmt.Errorf("engine: default solver: %w", err)
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 16
	}
	if cfg.ShedRetryAfter <= 0 {
		cfg.ShedRetryAfter = time.Second
	}
	return &Engine{
		cfg: cfg,
		sem: newFairScheduler(int64(cfg.MaxConcurrent), cfg.Tenants, cfg.ShedRetryAfter),
		met: newMetrics(),
	}, nil
}

// Close releases nothing: the engine runs no background work. It is kept so
// callers can tear a stack down uniformly after its serving surfaces have
// drained.
func (e *Engine) Close() {}

// Registry returns the engine's solver registry.
func (e *Engine) Registry() *solver.Registry { return e.cfg.Registry }

// Cache returns the engine's memo cache (nil when caching is disabled).
func (e *Engine) Cache() *solver.Cache { return e.cfg.Cache }

// DefaultSolver returns the name used when a request names no solver.
func (e *Engine) DefaultSolver() string { return e.cfg.DefaultSolver }

// MaxConcurrent returns the global admission budget.
func (e *Engine) MaxConcurrent() int { return e.cfg.MaxConcurrent }

// Tenant returns the resolved admission config the engine applies to the
// named tenant (the empty name resolves to DefaultTenant). Quota surfaces
// outside the engine — the job manager's per-tenant pending bound — read
// their limits from here so one flag configures the whole stack.
func (e *Engine) Tenant(name string) TenantConfig { return e.sem.Config(name) }

// Shed builds the typed rejection for tenant-quota refusals outside the
// admission path (e.g. the job manager's queue bound), using the engine's
// configured Retry-After hint. The error is also accounted as a shed for the
// tenant, so out-of-engine sheds appear in the same counters.
func (e *Engine) Shed(tenant, reason string) *ErrShed {
	if tenant == "" {
		tenant = DefaultTenant
	}
	e.met.observeShed(tenant)
	return &ErrShed{Tenant: tenant, Reason: reason, RetryAfter: e.cfg.ShedRetryAfter}
}

// Limits returns the engine's default (synchronous) deadline policy.
func (e *Engine) Limits() Limits {
	return Limits{Default: e.cfg.DefaultTimeout, Max: e.cfg.MaxTimeout}
}

// ResolveSolver maps an optional solver name to its registry entry's name,
// failing for unknown solvers. The empty name resolves to the default.
func (e *Engine) ResolveSolver(name string) (string, error) {
	if name == "" {
		name = e.cfg.DefaultSolver
	}
	if _, err := e.cfg.Registry.New(name); err != nil {
		return "", err
	}
	return name, nil
}

// Request describes one solve.
type Request struct {
	// Solver selects a registry entry; empty uses the engine's default.
	Solver string
	// Instance is the instance to solve; required.
	Instance *core.Instance
	// Fingerprint, when non-nil, is the precomputed canonical fingerprint of
	// Instance (callers that already hashed the instance — the job manager
	// records it at submit — pass it to skip the rehash).
	Fingerprint *core.Fingerprint
	// Timeout is the requested solve budget: 0 takes the limits' default,
	// positive values are clamped to the limits' maximum, and NoDeadline
	// disables the per-request deadline so the caller's context governs.
	Timeout time.Duration
	// Limits overrides the engine's deadline policy for this request; nil
	// uses the engine's (synchronous) limits. The job manager passes its own
	// much larger ceilings here.
	Limits *Limits
	// Observer, when non-nil, receives improving incumbents while the solve
	// runs. Cache and coalesced answers produce no observations.
	Observer progress.Func
	// WarmStart, when non-nil, is a caller-supplied warm-start hint: a
	// schedule believed feasible for Instance (typically the solution of a
	// near-identical instance the caller solved earlier). The kernels
	// validate it and use it only to tighten their pruning bound, so a bad
	// hint costs nothing and a good one skips most of the search; the answer
	// is identical either way. When absent, the engine consults the cache's
	// neighbor index for a hint on a miss.
	WarmStart *core.Schedule
	// Tenant is the tenant the request is admitted and accounted under;
	// empty means DefaultTenant. Fairness, quotas and shedding are applied
	// per tenant.
	Tenant string
}

// Result is the outcome of one solve request.
type Result struct {
	// Evaluation is the full evaluation (schedule, makespan, bounds, stats).
	// Cached evaluations are shared; treat it as immutable.
	Evaluation *solver.Evaluation
	// Source tells where the evaluation came from.
	Source solver.Source
	// Fingerprint is the instance's canonical fingerprint (the cache key).
	Fingerprint core.Fingerprint
	// Telemetry is the structured account of this request.
	Telemetry Telemetry
}

// Solve runs one request through the pipeline: resolve, clamp, route through
// the cache, admit, observe, account. Context errors (cancellation, deadline)
// are returned unwrapped-compatible: errors.Is(err, context.DeadlineExceeded)
// holds when the budget expired.
func (e *Engine) Solve(ctx context.Context, req Request) (*Result, error) {
	if req.Instance == nil {
		return nil, errors.New("engine: missing instance")
	}
	if err := req.Instance.Validate(); err != nil {
		return nil, err
	}
	name := req.Solver
	if name == "" {
		name = e.cfg.DefaultSolver
	}
	sv, err := e.cfg.Registry.New(name)
	if err != nil {
		return nil, err
	}

	limits := e.Limits()
	if req.Limits != nil {
		limits = *req.Limits
	}
	if req.Timeout != NoDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limits.Resolve(req.Timeout))
		defer cancel()
	}
	if req.Observer != nil {
		ctx = progress.WithObserver(ctx, req.Observer)
	}

	var fp core.Fingerprint
	if req.Fingerprint != nil {
		fp = *req.Fingerprint
	} else {
		fp = req.Instance.Fingerprint()
	}

	tenant := req.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	adm := &admitted{eng: e, inner: sv, tenant: tenant}
	if req.WarmStart != nil {
		// An explicit hint travels as a context value so it survives the
		// cache's singleflight indirection and the solver adapters' counter
		// shadowing; it also preempts the neighbor-index lookup below.
		ctx = progress.WithWarmStart(ctx, &progress.WarmStart{Schedule: req.WarmStart, Source: WarmSourceRequest})
		adm.hintSource = WarmSourceRequest
	}
	var (
		ev  *solver.Evaluation
		src solver.Source
	)
	if e.cfg.Cache != nil {
		ev, src, err = e.cfg.Cache.EvaluateWithFingerprint(ctx, adm, req.Instance, fp)
	} else {
		src = solver.SourceSolve
		ev, err = solver.Evaluate(ctx, adm, req.Instance)
	}
	e.met.observe(tenant, src, ev, err, adm.queued)
	if err != nil {
		return nil, err
	}
	tel := newTelemetry(name, ev, src, req.Instance, adm.queued)
	tel.Tenant = tenant
	if src == solver.SourceSolve && ev.Stats.WarmStart {
		// Warm-start telemetry describes this request's own solve; cache and
		// coalesced answers replay another request's stats, so they do not
		// claim its warm start.
		tel.WarmStart = adm.hintSource
		if tel.WarmStart == "" {
			tel.WarmStart = WarmSourceRequest
		}
		tel.SeedMakespan = ev.Stats.SeedMakespan
		e.met.warmStarts.Add(1)
	}
	return &Result{
		Evaluation:  ev,
		Source:      src,
		Fingerprint: fp,
		Telemetry:   tel,
	}, nil
}

// admitted wraps a solver so that every fresh solve first acquires the
// engine's fair scheduler under its tenant; acquisition respects the solve
// context, so a queued request whose deadline expires fails with the context
// error instead of waiting forever, and over-quota requests fail immediately
// with *ErrShed. Cache hits and coalesced waits never reach this wrapper —
// only the singleflight leader actually solves.
type admitted struct {
	eng    *Engine
	inner  solver.Solver
	tenant string
	// queued is the admission wait of this request's solve, read by the
	// engine after the call. One admitted value serves one request, and the
	// cache invokes Solve at most once per request, so the field is not
	// synchronised.
	queued time.Duration
	// hintSource records where this request's warm-start hint came from
	// ("request" when the caller supplied one, "neighbor" when the cache's
	// neighbor index produced one on the miss path); empty when no hint was
	// attached. Written before/inside the single Solve call, read after.
	hintSource string
}

// Warm-start hint sources, reported in Telemetry.WarmStart.
const (
	WarmSourceRequest  = "request"
	WarmSourceNeighbor = "neighbor"
)

func (a *admitted) Name() string { return a.inner.Name() }

func (a *admitted) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	start := time.Now()
	if err := a.eng.sem.Acquire(ctx, a.tenant); err != nil {
		a.queued = time.Since(start)
		return nil, solver.Stats{Solver: a.inner.Name()}, err
	}
	a.queued = time.Since(start)
	defer a.eng.sem.Release(a.tenant)
	// This point is reached only by a true miss that won admission (cache
	// hits and coalesced followers never get here), which is exactly where a
	// neighbor hint pays: ask the cache's shape index for an adapted
	// schedule of a near-duplicate solved earlier. A request-supplied hint
	// takes precedence.
	if a.hintSource == "" && a.eng.cfg.Cache != nil {
		if hint, ok := a.eng.cfg.Cache.WarmHint(a.inner.Name(), inst); ok {
			ctx = progress.WithWarmStart(ctx, &progress.WarmStart{Schedule: hint, Source: WarmSourceNeighbor})
			a.hintSource = WarmSourceNeighbor
		}
	}
	return a.inner.Solve(ctx, inst)
}

// Outcome is the result of one instance of a SolveEach batch.
type Outcome struct {
	// Index is the instance's position in the input batch.
	Index int
	// Result is set for successful solves.
	Result *Result
	// Err is set for failures; Skipped additionally marks instances that
	// were never handed to a solver because the batch context had already
	// expired.
	Err     error
	Skipped bool
}

// SolveEach solves every instance of a batch through the engine under one
// tenant ("" = DefaultTenant), sharding the submission across a pool of
// feeder workers (0 = MaxConcurrent). The actual solve concurrency is still
// governed by the engine's fair scheduler — the worker count only bounds how
// many requests this batch can have in flight at once, so one batch cannot
// monopolise admission ordering. Each instance runs with NoDeadline: the
// caller bounds the whole batch through ctx. The returned slice is
// index-aligned with insts; once ctx is cancelled, remaining instances fail
// fast with ctx.Err() and are marked Skipped.
func (e *Engine) SolveEach(ctx context.Context, tenant, solverName string, insts []*core.Instance, workers int) []Outcome {
	if workers <= 0 {
		workers = e.cfg.MaxConcurrent
	}
	if workers > len(insts) {
		workers = len(insts)
	}
	outcomes := make([]Outcome, len(insts))
	if len(insts) == 0 {
		return outcomes
	}

	indices := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for idx := range indices {
				outcomes[idx] = e.solveOne(ctx, tenant, solverName, idx, insts[idx])
			}
		}()
	}
feed:
	for idx := range insts {
		select {
		case indices <- idx:
		case <-ctx.Done():
			for rest := idx; rest < len(insts); rest++ {
				outcomes[rest] = Outcome{Index: rest, Err: ctx.Err(), Skipped: true}
			}
			break feed
		}
	}
	close(indices)
	for w := 0; w < workers; w++ {
		<-done
	}
	return outcomes
}

func (e *Engine) solveOne(ctx context.Context, tenant, solverName string, idx int, inst *core.Instance) Outcome {
	if err := ctx.Err(); err != nil {
		return Outcome{Index: idx, Err: err, Skipped: true}
	}
	// Hash at the batch split and hand the fingerprint down, so the cache
	// route (and the response field) reuse it instead of re-hashing.
	fp := inst.Fingerprint()
	res, err := e.Solve(ctx, Request{Solver: solverName, Instance: inst, Fingerprint: &fp, Timeout: NoDeadline, Tenant: tenant})
	if err != nil {
		return Outcome{Index: idx, Err: err}
	}
	return Outcome{Index: idx, Result: res}
}
