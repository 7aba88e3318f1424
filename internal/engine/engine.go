// Package engine is the single solve pipeline of the scheduling system:
// every surface that wants an instance solved — the synchronous HTTP
// handlers, the batch fan-out, the asynchronous job workers, the CLIs and
// the load harness — submits a Request here instead of talking to the solver
// registry or the memo cache directly. The engine owns, in order, the full
// lifecycle of a solve request:
//
//  1. resolution — the solver name is resolved to the engine's one solver
//     of that name, built from the registry on first use,
//  2. deadline clamping — the requested budget is resolved against the
//     caller's limits (sync and job surfaces have different ceilings); a
//     request the shared memo cache already holds an answer for is answered
//     before this step and skips the rest up to telemetry,
//  3. cache routing — the request is coalesced onto an identical in-flight
//     solve when possible,
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
	"sync"
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

	// solvers maps each solver name resolved so far to the one solver the
	// engine runs for it. Solvers hold no per-solve state (a portfolio's
	// members are read-only, an adapted kernel holds only its settings), so
	// one solver serves concurrent requests.
	solversMu sync.Mutex
	solvers   map[string]solver.Solver
}

// New validates the configuration, applies defaults and returns an Engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Registry == nil {
		return nil, errors.New("engine: Config.Registry is required")
	}
	if cfg.DefaultSolver == "" {
		cfg.DefaultSolver = "portfolio"
	}
	if err := cfg.Registry.Lookup(cfg.DefaultSolver); err != nil {
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
		cfg:     cfg,
		sem:     newFairScheduler(int64(cfg.MaxConcurrent), cfg.Tenants, cfg.ShedRetryAfter),
		met:     newMetrics(),
		solvers: make(map[string]solver.Solver),
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
// failing with the registry's error for unknown solvers. The empty name
// resolves to the default. It shares Solve's resolution, so the first
// request naming a solver builds the one solver every later request runs.
func (e *Engine) ResolveSolver(name string) (string, error) {
	name, _, err := e.resolve(name)
	return name, err
}

// resolve maps an optional solver name to its registry name and the
// engine's solver for it, building the solver with Registry.New the first
// time the name is seen. Unknown names are never stored; each returns New's
// error.
func (e *Engine) resolve(name string) (string, solver.Solver, error) {
	if name == "" {
		name = e.cfg.DefaultSolver
	}
	// The factory runs under the lock, so concurrent first requests for a
	// name build one solver between them.
	e.solversMu.Lock()
	defer e.solversMu.Unlock()
	if sv, ok := e.solvers[name]; ok {
		return name, sv, nil
	}
	sv, err := e.cfg.Registry.New(name)
	if err != nil {
		return "", nil, err
	}
	e.solvers[name] = sv
	return name, sv, nil
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
	// WarmStart, when non-nil, is a caller-supplied warm-start hint: the
	// schedule of a near-identical instance (typically the caller's last
	// answer in an online chain). The engine adapts it to Instance
	// (solver.AdaptSchedule) before the kernels see it; they validate it and
	// use it only to tighten their pruning bound, so a bad hint costs
	// nothing and a good one skips most of the search, and the answer is
	// identical either way. The schedule is never mutated.
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

// Solve runs one request through the pipeline: resolve, answer a stored
// cache entry at once, or else clamp, route through the cache, admit,
// observe; then account. Context errors (cancellation, deadline)
// are returned unwrapped-compatible: errors.Is(err, context.DeadlineExceeded)
// holds when the budget expired.
func (e *Engine) Solve(ctx context.Context, req Request) (*Result, error) {
	p, res, err := e.stored(&req)
	if res != nil || err != nil {
		return res, err
	}
	return e.solveFresh(ctx, &req, p)
}

// pending is a request the memo cache holds no answer for, as stored
// resolved it.
type pending struct {
	name, tenant string
	sv           solver.Solver
	fp           core.Fingerprint
}

// stored takes a request through the steps every answer starts with:
// validate, resolve the solver, fingerprint, and look the answer up in the
// memo cache. It returns the request's Result when the cache holds it, its
// error when it fails a step, and else neither, with the pending request
// for solveFresh. A stored answer needs no deadline, warm-start hint or
// admission, so none of them is prepared here.
func (e *Engine) stored(req *Request) (pending, *Result, error) {
	if req.Instance == nil {
		return pending{}, nil, errors.New("engine: missing instance")
	}
	if err := req.Instance.Validate(); err != nil {
		return pending{}, nil, err
	}
	name, sv, err := e.resolve(req.Solver)
	if err != nil {
		return pending{}, nil, err
	}
	p := pending{name: name, tenant: req.Tenant, sv: sv}
	if req.Fingerprint != nil {
		p.fp = *req.Fingerprint
	} else {
		p.fp = req.Instance.Fingerprint()
	}
	if p.tenant == "" {
		p.tenant = DefaultTenant
	}
	if e.cfg.Cache != nil {
		if ev, ok := e.cfg.Cache.Lookup(sv.Name(), req.Instance, p.fp); ok {
			res, err := e.result(name, p.tenant, req.Instance, p.fp, ev, solver.SourceCache, nil, 0)
			return p, res, err
		}
	}
	return p, nil, nil
}

// solveFresh finishes a request stored could not answer: clamp its
// deadline, attach its observer and warm-start hint, route it through the
// cache (or solve it uncached), admit and account it.
func (e *Engine) solveFresh(ctx context.Context, req *Request, p pending) (*Result, error) {
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
	if hint := req.WarmStart; hint != nil {
		// Fit the hint to this instance once here, rather than in every
		// kernel; one that cannot be adapted goes on raw, and the kernels'
		// own validation drops it. It travels as a context value so it
		// survives the cache's singleflight indirection and the solver
		// adapters' counter shadowing.
		if adapted, ok := solver.AdaptSchedule(req.Instance, hint); ok {
			hint = adapted
		}
		ctx = progress.WithWarmStart(ctx, hint)
	}
	adm := &admitted{eng: e, inner: p.sv, tenant: p.tenant}
	var (
		ev  *solver.Evaluation
		src solver.Source
		err error
	)
	if e.cfg.Cache != nil {
		ev, src, err = e.cfg.Cache.EvaluateWithFingerprint(ctx, adm, req.Instance, p.fp)
	} else {
		src = solver.SourceSolve
		ev, err = solver.Evaluate(ctx, adm, req.Instance)
	}
	return e.result(p.name, p.tenant, req.Instance, p.fp, ev, src, err, adm.queued)
}

// result accounts one answered request, or its error, and assembles its
// Result.
func (e *Engine) result(name, tenant string, inst *core.Instance, fp core.Fingerprint, ev *solver.Evaluation, src solver.Source, err error, queued time.Duration) (*Result, error) {
	e.met.observe(tenant, src, ev, err, queued)
	if err != nil {
		return nil, err
	}
	tel := newTelemetry(name, ev, src, inst, queued)
	tel.Tenant = tenant
	if src == solver.SourceSolve && ev.Stats.WarmStart {
		// Warm-start telemetry describes this request's own solve; cache and
		// coalesced answers replay another request's stats, so they do not
		// claim its warm start.
		tel.WarmStart = WarmSourceRequest
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
}

// WarmSourceRequest is Telemetry.WarmStart for a fresh solve that accepted
// the request's warm-start hint.
const WarmSourceRequest = "request"

func (a *admitted) Name() string { return a.inner.Name() }

func (a *admitted) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	start := time.Now()
	if err := a.eng.sem.Acquire(ctx, a.tenant); err != nil {
		a.queued = time.Since(start)
		return nil, solver.Stats{Solver: a.inner.Name()}, err
	}
	a.queued = time.Since(start)
	defer a.eng.sem.Release(a.tenant)
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
// tenant ("" = DefaultTenant). It answers the instances the memo cache
// already holds on the calling goroutine, through the same stored-hit step
// as Solve, and leaves only the misses to be solved: a lone miss on the
// calling goroutine too, and two or more through a pool of feeder workers
// (0 = MaxConcurrent) it starts for them. The actual solve concurrency is
// still governed by the engine's fair scheduler — the worker count only
// bounds how many requests this batch can have in flight at once, so one
// batch cannot monopolise admission ordering. Each instance runs with
// NoDeadline: the caller bounds the whole batch through ctx. The returned
// slice is index-aligned with insts; once ctx is cancelled, instances not
// yet answered fail fast with ctx.Err() and are marked Skipped.
func (e *Engine) SolveEach(ctx context.Context, tenant, solverName string, insts []*core.Instance, workers int) []Outcome {
	outcomes := make([]Outcome, len(insts))
	type miss struct {
		idx int
		p   pending
	}
	var misses []miss
	for idx, inst := range insts {
		if err := ctx.Err(); err != nil {
			outcomes[idx] = Outcome{Index: idx, Err: err, Skipped: true}
			continue
		}
		req := Request{Solver: solverName, Instance: inst, Tenant: tenant}
		p, res, err := e.stored(&req)
		switch {
		case err != nil:
			outcomes[idx] = Outcome{Index: idx, Err: err}
		case res != nil:
			outcomes[idx] = Outcome{Index: idx, Result: res}
		default:
			misses = append(misses, miss{idx, p})
		}
	}
	switch len(misses) {
	case 0:
		return outcomes
	case 1:
		m := misses[0]
		outcomes[m.idx] = e.solveMiss(ctx, tenant, solverName, m.idx, insts[m.idx], m.p)
		return outcomes
	}

	if workers <= 0 {
		workers = e.cfg.MaxConcurrent
	}
	workers = min(workers, len(misses))
	feed := make(chan miss)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for m := range feed {
				outcomes[m.idx] = e.solveMiss(ctx, tenant, solverName, m.idx, insts[m.idx], m.p)
			}
		}()
	}
send:
	for k, m := range misses {
		select {
		case feed <- m:
		case <-ctx.Done():
			for _, rest := range misses[k:] {
				outcomes[rest.idx] = Outcome{Index: rest.idx, Err: ctx.Err(), Skipped: true}
			}
			break send
		}
	}
	close(feed)
	for w := 0; w < workers; w++ {
		<-done
	}
	return outcomes
}

// solveMiss solves one instance of a batch that stored left pending,
// unless the batch context has already expired.
func (e *Engine) solveMiss(ctx context.Context, tenant, solverName string, idx int, inst *core.Instance, p pending) Outcome {
	if err := ctx.Err(); err != nil {
		return Outcome{Index: idx, Err: err, Skipped: true}
	}
	res, err := e.solveFresh(ctx, &Request{Solver: solverName, Instance: inst, Timeout: NoDeadline, Tenant: tenant}, p)
	if err != nil {
		return Outcome{Index: idx, Err: err}
	}
	return Outcome{Index: idx, Result: res}
}
