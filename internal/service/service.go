// Package service is the HTTP serving layer of the scheduling system: a
// long-running process that answers solve requests over JSON. It is a thin
// surface over internal/engine — the single solve pipeline that owns
// admission control, deadline clamping, memo-cache routing and telemetry —
// so the handlers here only parse requests, submit them to the engine and
// render results (including each solve's structured Telemetry).
//
// Endpoints (see README.md for the full API reference and ARCHITECTURE.md
// for the layer walkthrough):
//
//	POST   /v1/solve            solve one instance (SolveRequest -> SolveResponse)
//	POST   /v1/batch-solve      solve a JSON array of instances (engine fan-out)
//	GET    /v1/solvers          list the registered solver names
//	POST   /v1/jobs             submit an asynchronous solve (202 Accepted)
//	GET    /v1/jobs             list jobs, ?state= filters
//	GET    /v1/jobs/{id}        job record, including the result when done
//	DELETE /v1/jobs/{id}        cancel a pending or running job
//	GET    /v1/jobs/{id}/events SSE stream of state and incumbent events
//	GET    /healthz             liveness probe
//	GET    /metrics             counters and histograms in Prometheus text format
//
// Every synchronous solve runs under a per-request deadline
// (request-supplied, clamped by the engine to the configured maximum) and
// the engine's global admission budget shared with the batch path AND the
// asynchronous job workers, so a burst of heavy requests on any surface
// degrades into queueing instead of oversubscribing the machine. Instances
// that cannot finish inside any acceptable HTTP deadline go through the job
// API instead: they queue in a bounded internal/jobs worker pool, report
// incumbent solutions as they improve, and their results outlive the request
// (and, with a store, the process).
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/wire"
)

// maxBodyBytes caps request body sizes.
const maxBodyBytes = 32 << 20

// Config configures a Server. Engine is required; the zero value of every
// other field is replaced by the documented default in New.
type Config struct {
	// Engine is the solve pipeline the server routes through. It owns the
	// registry, memo cache, default solver, deadlines and admission quotas.
	// Share one engine between the server and the job manager so every
	// surface draws from the same admission budget and memo cache.
	Engine *engine.Engine
	// MaxBatch caps the instances of one batch request (default 1024).
	MaxBatch int
	// Jobs, when non-nil, enables the asynchronous job API (/v1/jobs*) for
	// solves that outlast the synchronous deadline. The manager's lifecycle
	// belongs to the caller: close it after the HTTP listener drains.
	Jobs *jobs.Manager
	// APIKeys maps API keys (sent as "Authorization: Bearer <key>" or in the
	// X-API-Key header) to tenant names. Requests may also name their tenant
	// directly with the X-Tenant header; with neither they run as the default
	// tenant. Empty disables key lookup (keys are then ignored, not
	// rejected).
	APIKeys map[string]string
	// Version is reported by /healthz.
	Version string
}

// Server handles the HTTP API. Create one with New; it is safe for
// concurrent use.
type Server struct {
	cfg     Config
	eng     *engine.Engine
	mux     *http.ServeMux
	started time.Time
	metrics metrics
	// shutdown is closed when Backend.Close starts draining; long-lived
	// streams (SSE) select on it so open subscriptions cannot pin graceful
	// shutdown to its full grace budget. http.Server.Shutdown alone cannot
	// do this: it waits for active handlers and does not cancel their
	// request contexts.
	shutdown chan struct{}
	// jsonOnly sends every request body through encoding/json, skipping
	// the canonical decoders; tests set it to compare the two paths.
	jsonOnly bool
}

// New validates the configuration, applies defaults and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("service: Config.Engine is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	s := &Server{
		cfg:      cfg,
		eng:      cfg.Engine,
		mux:      http.NewServeMux(),
		started:  time.Now(),
		shutdown: make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch-solve", s.handleBatch)
	s.mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Jobs != nil {
		s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
		s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
		s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	}
	return s, nil
}

// Engine returns the solve pipeline the server routes through.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the server's HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// requestTimeout parses a request-supplied duration string. Zero means "use
// the engine's default"; the engine clamps the value when the solve runs.
func requestTimeout(raw string) (time.Duration, error) {
	if raw == "" {
		return 0, nil
	}
	parsed, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("invalid timeout %q: %v", raw, err)
	}
	if parsed <= 0 {
		return 0, fmt.Errorf("invalid timeout %q: must be positive", raw)
	}
	return parsed, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// A peer cache fill is a solve a sibling backend forwarded because this
	// process owns the fingerprint; count it as fill work, not as a client
	// request, so the forwarded solve is attributed once across the fleet.
	isFill := r.Header.Get(FillHeader) != ""
	if isFill {
		s.metrics.peerFillServed.Add(1)
	} else {
		s.metrics.requestsSolve.Add(1)
	}
	tenant, status, terr := s.tenantFor(r)
	if terr != nil {
		s.fail(w, status, terr)
		return
	}
	var req SolveRequest
	if !s.decode(w, r, &req) {
		return
	}
	// Instance.UnmarshalJSON validates, so a decoded instance is in the
	// model's domain.
	if req.Instance == nil {
		s.fail(w, http.StatusBadRequest, errors.New("missing instance"))
		return
	}
	name, err := s.eng.ResolveSolver(req.Solver)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	timeout, err := requestTimeout(req.Timeout)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	// Hash once up front; the owner check below and the engine's cache route
	// both reuse this fingerprint instead of re-hashing.
	fp := req.Instance.Fingerprint()

	// The router says another backend owns this fingerprint: on a local cache
	// miss, fetch the result from the owner's warm cache instead of
	// re-solving. Contains has no stat or LRU side effects, so a local hit
	// still books exactly one cache hit when the engine serves it below.
	if owner := r.Header.Get(OwnerHeader); owner != "" && !isFill {
		if cache := s.eng.Cache(); cache != nil && !cache.Contains(name, fp) {
			if s.forwardFill(w, r, owner, tenant, &req) {
				return
			}
		}
	}

	res, err := s.eng.Solve(r.Context(), engine.Request{
		Solver:      name,
		Instance:    req.Instance,
		Fingerprint: &fp,
		Timeout:     timeout,
		Tenant:      tenant,
		WarmStart:   req.WarmStart,
	})
	if err != nil {
		var shed *engine.ErrShed
		if errors.As(err, &shed) {
			s.failShed(w, shed)
			return
		}
		if errors.Is(err, context.DeadlineExceeded) {
			s.metrics.deadlineExpired.Add(1)
			s.fail(w, http.StatusGatewayTimeout,
				fmt.Errorf("solve exceeded its %s deadline", s.eng.Limits().Resolve(timeout)))
			return
		}
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	ev := res.Evaluation
	resp := SolveResponse{
		Solver:      name,
		Algorithm:   ev.Algorithm,
		Source:      string(res.Source),
		Fingerprint: res.Fingerprint.String(),
		Makespan:    ev.Makespan,
		LowerBound:  ev.LowerBound,
		Ratio:       ev.Ratio,
		Wasted:      ev.Wasted,
		Properties:  ev.Properties.String(),
		ElapsedMS:   float64(ev.Stats.Elapsed) / float64(time.Millisecond),
		Telemetry:   &res.Telemetry,
	}
	if req.IncludeSchedule {
		resp.Schedule = ev.Schedule
	}
	s.respond(w, http.StatusOK, &resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsBatch.Add(1)
	tenant, status, terr := s.tenantFor(r)
	if terr != nil {
		s.fail(w, status, terr)
		return
	}
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Instances) == 0 {
		s.fail(w, http.StatusBadRequest, errors.New("missing instances"))
		return
	}
	if len(req.Instances) > s.cfg.MaxBatch {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d exceeds the maximum of %d", len(req.Instances), s.cfg.MaxBatch))
		return
	}
	for i, inst := range req.Instances {
		if inst == nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("instance %d is null", i))
			return
		}
	}
	name, err := s.eng.ResolveSolver(req.Solver)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	timeout, err := requestTimeout(req.Timeout)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.batchInstances.Add(uint64(len(req.Instances)))
	// One deadline bounds the whole batch; the engine then runs each shard
	// with NoDeadline under this context, and every shard's actual solve
	// acquires the same global admission semaphore as the single-solve path
	// and the job workers.
	ctx, cancel := context.WithTimeout(r.Context(), s.eng.Limits().Resolve(timeout))
	defer cancel()
	outcomes := s.eng.SolveEach(ctx, tenant, name, req.Instances, s.eng.MaxConcurrent())

	var lastShed *engine.ErrShed
	resp := BatchResponse{Solver: name, Count: len(outcomes), Results: make([]BatchResult, len(outcomes))}
	for i, out := range outcomes {
		res := BatchResult{Index: out.Index}
		var shed *engine.ErrShed
		switch {
		case out.Skipped:
			resp.Cancelled++
			res.Cancelled = true
			res.Error = out.Err.Error()
		case errors.As(out.Err, &shed):
			resp.Shed++
			res.Shed = true
			res.Error = out.Err.Error()
			lastShed = shed
		case out.Err != nil:
			resp.Failed++
			res.Error = out.Err.Error()
		default:
			resp.Solved++
			ev := out.Result.Evaluation
			res.Makespan = ev.Makespan
			res.Wasted = ev.Wasted
			res.Algorithm = ev.Algorithm
			res.Source = string(out.Result.Source)
			res.ElapsedMS = float64(ev.Stats.Elapsed) / float64(time.Millisecond)
			res.Telemetry = &out.Result.Telemetry
		}
		resp.Results[i] = res
	}
	s.metrics.batchCancelled.Add(uint64(resp.Cancelled))
	if resp.Shed == len(outcomes) && lastShed != nil {
		// The whole batch was refused over quota: answer like a shed solve
		// (429 + Retry-After) so clients back off instead of inspecting the
		// per-result flags. Partially shed batches stay 200 — partial results
		// are the point of the batch surface.
		secs := int(lastShed.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		s.metrics.shedTotal.Add(1)
		s.respond(w, http.StatusTooManyRequests, &resp)
		return
	}
	s.respond(w, http.StatusOK, &resp)
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsOther.Add(1)
	s.respond(w, http.StatusOK, SolversResponse{
		Solvers: s.eng.Registry().Names(),
		Default: s.eng.DefaultSolver(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsOther.Add(1)
	s.respond(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Version:       s.cfg.Version,
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsOther.Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.eng, s.cfg.Jobs, time.Since(s.started))
}

// canonicalDecoder is a request body with a one-pass decoder for its
// canonical form (see codec.go).
type canonicalDecoder interface {
	DecodeCanonical(data []byte) bool
}

// decode reads the JSON request body into dst, bounding its size and
// rejecting anything but whitespace after the value. A canonical body
// decodes in one pass; any other goes through encoding/json. It writes the
// error response itself and reports whether decoding succeeded.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst canonicalDecoder) bool {
	bp := wire.GetBuffer()
	defer wire.PutBuffer(bp)
	body, err := wire.ReadSized(*bp, http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	*bp = body
	if err != nil {
		// Report what encoding/json reports on the bytes that did arrive: a
		// syntax error it finds before the read failed, else the read error.
		dec := json.NewDecoder(io.MultiReader(bytes.NewReader(body), errReader{err}))
		if derr := dec.Decode(dst); derr != nil {
			err = derr
		}
		s.fail(w, http.StatusBadRequest, fmt.Errorf("parsing request: %w", err))
		return false
	}
	if !s.jsonOnly && dst.DecodeCanonical(body) {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(dst); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("parsing request: %w", err))
		return false
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		s.fail(w, http.StatusBadRequest, errors.New("trailing data after request body"))
		return false
	}
	return true
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// respBuf is a pooled response encoder: its buffer and the json.Encoder
// writing into it live as long as the pool keeps them, so encoding a
// response allocates nothing of its own. Like wire.PutBuffer, respond drops
// a buffer that grew past wire.MaxPooled.
type respBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var respBufs = sync.Pool{New: func() any {
	rb := new(respBuf)
	rb.enc = json.NewEncoder(&rb.buf)
	return rb
}}

// appendEncoder is a response body that appends its own JSON encoding,
// byte for byte what json.Encoder writes; ok is false for a value
// encoding/json refuses (a NaN or an infinity).
type appendEncoder interface {
	AppendJSON(b []byte) (_ []byte, ok bool)
}

// encode writes body and a newline into the buffer, as json.Encoder does.
func (rb *respBuf) encode(body any) error {
	if a, ok := body.(appendEncoder); ok {
		if b, ok := a.AppendJSON(rb.buf.AvailableBuffer()); ok {
			rb.buf.Write(append(b, '\n'))
			return nil
		}
	}
	return rb.enc.Encode(body)
}

// respond writes body as JSON with its Content-Length, so a router in front
// can size its read of the response in one allocation. Solve and batch
// responses append themselves; any other body, and one holding a value
// encoding/json refuses, goes through json.Encoder.
func (s *Server) respond(w http.ResponseWriter, status int, body any) {
	rb := respBufs.Get().(*respBuf)
	defer func() {
		if rb.buf.Cap() <= wire.MaxPooled {
			rb.buf.Reset()
			respBufs.Put(rb)
		}
	}()
	w.Header().Set("Content-Type", "application/json")
	if err := rb.encode(body); err != nil {
		// Nothing to send but the status line; note the failure.
		w.WriteHeader(status)
		s.metrics.errorsTotal.Add(1)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(rb.buf.Len()))
	w.WriteHeader(status)
	w.Write(rb.buf.Bytes())
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.metrics.errorsTotal.Add(1)
	s.respond(w, status, ErrorResponse{Error: err.Error()})
}
