package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"crsharing/internal/service"
	"crsharing/internal/wire"
)

// maxBodyBytes caps request body sizes, mirroring the backend's own cap.
const maxBodyBytes = 32 << 20

// Config configures a Router. Zero values of optional fields get the
// defaults of DefaultConfig in New.
type Config struct {
	// Backends are the base URLs of the crsharing backends to route across
	// (e.g. "http://10.0.0.1:8080"); at least one is required.
	Backends []string
	// VNodes is the number of virtual nodes per backend on the hash ring.
	VNodes int
	// ProbeInterval is how often every backend's /healthz is probed.
	ProbeInterval time.Duration
	// FailAfter is how many consecutive failures (probe or proxy) eject a
	// backend from the ring. One later successful probe re-admits it.
	FailAfter int
	// Client is the HTTP client for proxying and probing (default
	// http.DefaultClient). Per-request deadlines come from the incoming
	// request's context; probes use ProbeInterval as their own timeout.
	Client *http.Client
	// Logf, when set, receives membership transitions (ejections,
	// re-admissions, drains); nil is silent.
	Logf func(format string, args ...any)
}

// backendState is one backend's membership record.
type backendState struct {
	url      string
	healthy  bool
	draining bool
	fails    int // consecutive failures; reset on any success
}

// BackendStatus is one backend's state as reported by /healthz and the admin
// endpoints.
type BackendStatus struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining"`
}

// HealthResponse is the router's GET /healthz body.
type HealthResponse struct {
	Status   string          `json:"status"`
	Backends []BackendStatus `json:"backends"`
}

// Router fronts a fleet of crsharing backends. Create one with New, Start the
// health probes, serve Handler, Close on shutdown. It is safe for concurrent
// use.
type Router struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux

	mu        sync.RWMutex
	backends  map[string]*backendState
	order     []string // Config.Backends order, for stable listings
	routeRing *ring    // healthy, non-draining: where new requests go
	ownerRing *ring    // healthy incl. draining: whose cache is warm

	m routerMetrics

	stop      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once
}

// DefaultConfig returns the values New gives zero optional fields: 64
// virtual nodes per backend, a 1s probe interval and ejection after 3
// consecutive failures.
func DefaultConfig() Config {
	return Config{VNodes: 64, ProbeInterval: time.Second, FailAfter: 3}
}

// New validates the configuration and returns a Router. All backends start
// healthy — the router serves immediately and the first probe round corrects
// the optimism.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("router: Config.Backends is required")
	}
	def := DefaultConfig()
	if cfg.VNodes <= 0 {
		cfg.VNodes = def.VNodes
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = def.ProbeInterval
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = def.FailAfter
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	rt := &Router{
		cfg:      cfg,
		client:   cfg.Client,
		mux:      http.NewServeMux(),
		backends: make(map[string]*backendState, len(cfg.Backends)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, b := range cfg.Backends {
		if b == "" {
			return nil, errors.New("router: empty backend URL")
		}
		if _, dup := rt.backends[b]; dup {
			return nil, fmt.Errorf("router: duplicate backend %q", b)
		}
		rt.backends[b] = &backendState{url: b, healthy: true}
		rt.order = append(rt.order, b)
	}
	rt.rebuildLocked()

	rt.mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("POST /v1/batch-solve", rt.handleBatch)
	rt.mux.HandleFunc("GET /v1/solvers", rt.handleAny)
	rt.mux.HandleFunc("POST /v1/jobs", rt.handleJobSubmit)
	rt.mux.HandleFunc("GET /v1/jobs", rt.handleJobList)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJobByID)
	rt.mux.HandleFunc("DELETE /v1/jobs/{id}", rt.handleJobByID)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/events", rt.handleJobEvents)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("POST /admin/drain", rt.handleDrain(true))
	rt.mux.HandleFunc("POST /admin/undrain", rt.handleDrain(false))
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Start launches the periodic health probes. Safe to call once.
func (rt *Router) Start() {
	rt.startOnce.Do(func() {
		go func() {
			defer close(rt.done)
			ticker := time.NewTicker(rt.cfg.ProbeInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					rt.probeAll()
				case <-rt.stop:
					return
				}
			}
		}()
	})
}

// Close stops the health probes.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.startOnce.Do(func() { close(rt.done) }) // never started
	<-rt.done
}

// logf logs a membership transition when a logger is configured.
func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// rebuildLocked recomputes both rings from the membership. Callers hold mu.
//
// The two rings encode drain semantics: routeRing (healthy AND not draining)
// is where NEW requests go; ownerRing (healthy, draining included) is whose
// cache is authoritative for a fingerprint. While a backend drains, its keys
// route to the successor but the successor's misses are filled from the
// draining backend's still-warm cache — the fleet keeps behaving as one cache
// through the handover.
func (rt *Router) rebuildLocked() {
	var route, owner []string
	for _, url := range rt.order {
		b := rt.backends[url]
		if !b.healthy {
			continue
		}
		owner = append(owner, url)
		if !b.draining {
			route = append(route, url)
		}
	}
	if len(route) == 0 {
		// Everything is draining: routing to a draining backend beats 503.
		route = owner
	}
	rt.routeRing = buildRing(route, rt.cfg.VNodes)
	rt.ownerRing = buildRing(owner, rt.cfg.VNodes)
	rt.m.backendsHealthy.Store(int64(len(owner)))
	var draining int64
	for _, url := range rt.order {
		if b := rt.backends[url]; b.healthy && b.draining {
			draining++
		}
	}
	rt.m.backendsDraining.Store(draining)
}

// probeAll probes every backend's /healthz once, concurrently, and applies
// the verdicts.
func (rt *Router) probeAll() {
	rt.mu.RLock()
	urls := append([]string(nil), rt.order...)
	rt.mu.RUnlock()
	var wg sync.WaitGroup
	for _, url := range urls {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
			if err != nil {
				rt.noteFailure(url)
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rt.noteFailure(url)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				rt.noteFailure(url)
				return
			}
			rt.noteSuccess(url)
		}(url)
	}
	wg.Wait()
}

// noteFailure books one failure against a backend; FailAfter consecutive
// failures eject it from both rings until a probe succeeds again.
func (rt *Router) noteFailure(url string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := rt.backends[url]
	if b == nil {
		return
	}
	b.fails++
	if b.healthy && b.fails >= rt.cfg.FailAfter {
		b.healthy = false
		rt.m.ejections.Add(1)
		rt.rebuildLocked()
		rt.logf("router: ejected %s after %d consecutive failures", url, b.fails)
	}
}

// noteSuccess clears a backend's failure streak and re-admits it if ejected.
func (rt *Router) noteSuccess(url string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := rt.backends[url]
	if b == nil {
		return
	}
	b.fails = 0
	if !b.healthy {
		b.healthy = true
		rt.m.readmissions.Add(1)
		rt.rebuildLocked()
		rt.logf("router: re-admitted %s", url)
	}
}

// SetDraining marks a backend as draining (or clears the mark) and reports
// whether the backend is known.
func (rt *Router) SetDraining(url string, draining bool) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b := rt.backends[url]
	if b == nil {
		return false
	}
	if b.draining != draining {
		b.draining = draining
		rt.rebuildLocked()
		rt.logf("router: %s draining=%v", url, draining)
	}
	return true
}

// Backends reports every backend's membership state in configuration order.
func (rt *Router) Backends() []BackendStatus {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]BackendStatus, 0, len(rt.order))
	for _, url := range rt.order {
		b := rt.backends[url]
		out = append(out, BackendStatus{URL: b.url, Healthy: b.healthy, Draining: b.draining})
	}
	return out
}

// pick resolves a fingerprint key to (target, owner): target is the backend
// the request is routed to, owner the backend whose cache is authoritative.
// They differ only across membership changes (e.g. the owner is draining);
// then the request carries the service.OwnerHeader so the target can fill its
// miss from the owner's cache.
func (rt *Router) pick(key uint64, exclude string) (target, owner string) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	skip := func(b string) bool { return b == exclude }
	target = rt.routeRing.lookup(key, skip)
	if target == "" {
		target = rt.routeRing.lookup(key, nil) // nowhere else to go
	}
	owner = rt.ownerRing.lookup(key, nil)
	return target, owner
}

// healthyBackends returns the healthy backends in configuration order.
func (rt *Router) healthyBackends() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var out []string
	for _, url := range rt.order {
		if rt.backends[url].healthy {
			out = append(out, url)
		}
	}
	return out
}

// readBody slurps and bounds the request body, reading it into buf when it
// has room (wire.ReadSized).
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	body, err := wire.ReadSized(buf, http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		rt.fail(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return body, false
	}
	return body, true
}

// proxyHeaders copies the client's headers for a proxied request, stripping
// the fleet-internal ones — clients do not get to claim ownership or mark
// fills; the router (and the backends) set those themselves.
func proxyHeaders(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
	dst.Del(service.OwnerHeader)
	dst.Del(service.FillHeader)
}

// send proxies one request to a backend and returns the response. A transport
// error books a failure against the backend (so a killed backend ejects after
// FailAfter in-flight errors even between probe rounds) and is returned for
// the caller to retry elsewhere.
func (rt *Router) send(ctx context.Context, method, backend, path string, header http.Header, owner string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, backend+path, rd)
	if err != nil {
		return nil, err
	}
	proxyHeaders(req.Header, header)
	if owner != "" && owner != backend {
		req.Header.Set(service.OwnerHeader, owner)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.noteFailure(backend)
		return nil, err
	}
	rt.noteSuccess(backend)
	return resp, nil
}

// passthrough copies a backend response to the client verbatim.
func (rt *Router) passthrough(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	// Copy through a pooled buffer: io.Copy into the ResponseWriter itself
	// would take its ReadFrom, which for a response with a Content-Length
	// hands the body to the TCP connection's generic ReadFrom, and that
	// allocates a fresh 32 KiB buffer per response. Any buffer the pool
	// has served a body in holds 512 bytes or more (wire.ReadSized), and a
	// longer response is copied in rounds.
	bp := wire.GetBuffer()
	if cap(*bp) < 512 {
		*bp = make([]byte, 0, 4<<10)
	}
	io.CopyBuffer(writerOnly{w}, resp.Body, (*bp)[:cap(*bp)])
	wire.PutBuffer(bp)
}

// writerOnly hides a writer's ReadFrom, so io.CopyBuffer uses the buffer it
// is given.
type writerOnly struct{ io.Writer }

// route proxies a fingerprint-keyed request: it sends to the ring target
// (with the owner header when target and owner differ) and, on a transport
// error, retries ONCE on a different backend — solves and job submissions are
// idempotent, and the retry is what bounds a killed backend's blast radius to
// the requests already in flight on it.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, key uint64, body []byte) {
	target, owner := rt.pick(key, "")
	if target == "" {
		rt.m.errors.Add(1)
		rt.fail(w, http.StatusServiceUnavailable, errors.New("no healthy backends"))
		return
	}
	if owner != "" && owner != target {
		rt.m.forwardedOwner.Add(1)
	}
	resp, err := rt.send(r.Context(), r.Method, target, r.URL.Path, r.Header, owner, body)
	if err != nil {
		rt.m.retries.Add(1)
		retryTarget, retryOwner := rt.pick(key, target)
		if retryTarget != "" && retryTarget != target {
			if resp2, err2 := rt.send(r.Context(), r.Method, retryTarget, r.URL.Path, r.Header, retryOwner, body); err2 == nil {
				rt.passthrough(w, resp2)
				return
			}
		}
		rt.m.errors.Add(1)
		rt.fail(w, http.StatusBadGateway, fmt.Errorf("backend %s: %v", target, err))
		return
	}
	rt.passthrough(w, resp)
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt.m.requests.Add(1)
	rt.m.routedSolve.Add(1)
	body, ok := rt.readBody(w, r, nil)
	if !ok {
		return
	}
	var req service.SolveRequest
	if !req.DecodeCanonical(body) && json.Unmarshal(body, &req) != nil || req.Instance == nil {
		rt.fail(w, http.StatusBadRequest, errors.New("parsing request: missing or invalid instance"))
		return
	}
	rt.route(w, r, req.Instance.Fingerprint().Uint64(), body)
}

func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	rt.m.requests.Add(1)
	rt.m.routedJobs.Add(1)
	body, ok := rt.readBody(w, r, nil)
	if !ok {
		return
	}
	var req service.JobRequest
	if !req.DecodeCanonical(body) && json.Unmarshal(body, &req) != nil || req.Instance == nil {
		rt.fail(w, http.StatusBadRequest, errors.New("parsing request: missing or invalid instance"))
		return
	}
	rt.route(w, r, req.Instance.Fingerprint().Uint64(), body)
}

// handleAny proxies a keyless GET (e.g. /v1/solvers) to the first healthy
// backend that answers.
func (rt *Router) handleAny(w http.ResponseWriter, r *http.Request) {
	rt.m.requests.Add(1)
	for _, backend := range rt.healthyBackends() {
		resp, err := rt.send(r.Context(), r.Method, backend, r.URL.Path, r.Header, "", nil)
		if err != nil {
			continue
		}
		rt.passthrough(w, resp)
		return
	}
	rt.m.errors.Add(1)
	rt.fail(w, http.StatusServiceUnavailable, errors.New("no healthy backends"))
}

// findJob counts a routed job request and asks the healthy backends in turn
// for a job path, returning the first answer that is not a 404: job IDs are
// backend-local 16-hex crypto-random strings, so that answer is THE answer.
// When every backend answers 404 the job does not exist; findJob then
// answers 404 itself and returns nil.
func (rt *Router) findJob(w http.ResponseWriter, r *http.Request, path string) *http.Response {
	rt.m.requests.Add(1)
	rt.m.routedJobs.Add(1)
	for _, backend := range rt.healthyBackends() {
		resp, err := rt.send(r.Context(), r.Method, backend, path, r.Header, "", nil)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusNotFound {
			return resp
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	rt.fail(w, http.StatusNotFound, errors.New("job not found on any backend"))
	return nil
}

// handleJobByID proxies a job's GET or DELETE to the backend that has it.
func (rt *Router) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if resp := rt.findJob(w, r, "/v1/jobs/"+r.PathValue("id")); resp != nil {
		rt.passthrough(w, resp)
	}
}

// handleJobEvents streams a job's SSE events from whichever backend owns the
// job, flushing every chunk through so incumbent events arrive live.
func (rt *Router) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	resp := rt.findJob(w, r, "/v1/jobs/"+r.PathValue("id")+"/events")
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleJobList fans the listing out to every healthy backend and merges the
// pages; a backend that fails mid-listing is skipped rather than failing the
// whole view.
func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	rt.m.requests.Add(1)
	rt.m.routedJobs.Add(1)
	path := "/v1/jobs"
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	merged := service.JobListResponse{Jobs: nil}
	for _, backend := range rt.healthyBackends() {
		resp, err := rt.send(r.Context(), http.MethodGet, backend, path, r.Header, "", nil)
		if err != nil {
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		var page service.JobListResponse
		if json.Unmarshal(data, &page) != nil {
			continue
		}
		merged.Jobs = append(merged.Jobs, page.Jobs...)
	}
	sort.Slice(merged.Jobs, func(i, j int) bool { return merged.Jobs[i].ID < merged.Jobs[j].ID })
	merged.Count = len(merged.Jobs)
	rt.respond(w, http.StatusOK, merged)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.m.requests.Add(1)
	backends := rt.Backends()
	status := "ok"
	healthy := 0
	for _, b := range backends {
		if b.Healthy {
			healthy++
		}
	}
	if healthy == 0 {
		status = "unavailable"
	}
	code := http.StatusOK
	if status != "ok" {
		code = http.StatusServiceUnavailable
	}
	rt.respond(w, code, HealthResponse{Status: status, Backends: backends})
}

// handleDrain flips a backend's draining flag: POST /admin/drain?backend=URL
// starts a graceful drain (in-flight work finishes, new keys route to the
// successor, peer fills keep its cache useful), /admin/undrain reverses it.
func (rt *Router) handleDrain(draining bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rt.m.requests.Add(1)
		url := r.URL.Query().Get("backend")
		if url == "" {
			rt.fail(w, http.StatusBadRequest, errors.New("missing ?backend= query parameter"))
			return
		}
		if !rt.SetDraining(url, draining) {
			rt.fail(w, http.StatusNotFound, fmt.Errorf("unknown backend %q", url))
			return
		}
		for _, b := range rt.Backends() {
			if b.URL == url {
				rt.respond(w, http.StatusOK, b)
				return
			}
		}
	}
}

func (rt *Router) respond(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func (rt *Router) fail(w http.ResponseWriter, status int, err error) {
	rt.respond(w, status, service.ErrorResponse{Error: err.Error()})
}
