package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/solver"
)

// The traced run times calls into each layer from outside the program:
// wrappers at public seams record spans (layer, start, end, request ID,
// parent span) into an in-memory store that is written to a file at exit.

type spanKind uint8

const (
	spanClient  spanKind = iota // client send to fully decoded response
	spanRouter                  // router handler
	spanHop                     // one proxied request from router to backend
	spanService                 // backend handler
	spanKernel                  // one registry solver's Solve call
)

var spanNames = [...]string{"client", "router", "router.hop", "service", "solver.kernel"}

// Headers carrying the trace context across HTTP hops. The router copies
// client headers to the backends it proxies to.
const (
	headerRequest = "X-Servebench-Request"
	headerParent  = "X-Servebench-Parent"
)

type span struct {
	id, parent int64
	req        uint64
	kind       spanKind
	start, end int64 // nanoseconds since the tracer's epoch
	respBytes  int64 // handler spans: response body bytes written
}

func (s span) ms() float64 { return float64(s.end-s.start) / 1e6 }

type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and empties the store.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// traceRef is the trace context carried in a request's context.Context.
type traceRef struct {
	req uint64
	id  int64
}

type traceKey struct{}

func withRef(ctx context.Context, ref traceRef) context.Context {
	return context.WithValue(ctx, traceKey{}, ref)
}

func refFrom(ctx context.Context) (traceRef, bool) {
	ref, ok := ctx.Value(traceKey{}).(traceRef)
	return ref, ok
}

// stampHeaders returns a copy of req that carries ref in its headers.
func stampHeaders(req *http.Request, ref traceRef) *http.Request {
	out := req.Clone(req.Context())
	out.Header.Set(headerRequest, strconv.FormatUint(ref.req, 10))
	out.Header.Set(headerParent, strconv.FormatInt(ref.id, 10))
	return out
}

// clientTransport stamps the benchmark request ID and the client span onto
// every request a client sends.
type clientTransport struct{ base http.RoundTripper }

func (c *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := refFrom(req.Context()); ok {
		req = stampHeaders(req, ref)
	}
	return c.base.RoundTrip(req)
}

// hopTransport wraps the router's proxy client: each proxied request is a
// router.hop span, from send until the router closes the response body.
type hopTransport struct {
	tr   *tracer
	base http.RoundTripper
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := refFrom(req.Context())
	if !ok {
		return h.base.RoundTrip(req) // health probes carry no trace
	}
	s := span{id: h.tr.nextID.Add(1), parent: parent.id, req: parent.req, kind: spanHop, start: h.tr.now()}
	resp, err := h.base.RoundTrip(stampHeaders(req, traceRef{req: parent.req, id: s.id}))
	if err != nil {
		s.end = h.tr.now()
		h.tr.record(s)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { s.end = h.tr.now(); h.tr.record(s) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

// handler wraps an HTTP handler so every request that carries a trace
// context is recorded as a span of the given kind. A nil tracer returns h
// unchanged.
func (t *tracer) handler(kind spanKind, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err1 := strconv.ParseUint(r.Header.Get(headerRequest), 10, 64)
		parent, err2 := strconv.ParseInt(r.Header.Get(headerParent), 10, 64)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := span{id: t.nextID.Add(1), parent: parent, req: req, kind: kind, start: t.now()}
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(withRef(r.Context(), traceRef{req: req, id: s.id})))
		s.end = t.now()
		s.respBytes = cw.n
		t.record(s)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// registry returns a registry whose every factory wraps the base factory of
// the same name, recording each Solve as a solver.kernel span.
func (t *tracer) registry(base *solver.Registry) *solver.Registry {
	reg := solver.NewRegistry()
	for _, name := range base.Names() {
		reg.Register(name, func() solver.Solver {
			inner, err := base.New(name)
			if err != nil {
				// name came from base.Names(); a miss is a bug.
				panic(err)
			}
			k := &kernelSpan{tr: t, inner: inner}
			if e, ok := inner.(interface{ IsExact() bool }); ok {
				return &exactKernelSpan{kernelSpan: k, exact: e}
			}
			return k
		})
	}
	return reg
}

type kernelSpan struct {
	tr    *tracer
	inner solver.Solver
}

func (k *kernelSpan) Name() string { return k.inner.Name() }

func (k *kernelSpan) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	ref, ok := refFrom(ctx)
	if !ok {
		return k.inner.Solve(ctx, inst)
	}
	s := span{id: k.tr.nextID.Add(1), parent: ref.id, req: ref.req, kind: spanKernel, start: k.tr.now()}
	sched, st, err := k.inner.Solve(ctx, inst)
	s.end = k.tr.now()
	k.tr.record(s)
	return sched, st, err
}

// exactKernelSpan keeps the optional IsExact method of the wrapped solver.
type exactKernelSpan struct {
	*kernelSpan
	exact interface{ IsExact() bool }
}

func (e *exactKernelSpan) IsExact() bool { return e.exact.IsExact() }

// writeSpans writes one line per span: request ID, span ID, parent, layer,
// start and end in nanoseconds since the traced phase began.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "req\tid\tparent\tlayer\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, s.id, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is what the spans of a traced phase say about each layer.
type layerTimes struct {
	transportSelf, routerSelf, routerHop []float64
	subrequests                          []float64
	handler, serviceSelf, respKB         []float64
	kernel                               []float64
	kernelOverruns                       int
}

// attribute computes per-layer self times. queueMS holds each request's
// summed admission wait from its answers' telemetry; timeout is the request
// budget that kernel spans are compared against.
func attribute(spans []span, queueMS map[uint64]float64, timeout time.Duration) layerTimes {
	byReq := make(map[uint64][]span)
	for _, s := range spans {
		byReq[s.req] = append(byReq[s.req], s)
	}
	var lt layerTimes
	overrun := int64(float64(timeout) * 1.1)
	for req, ss := range byReq {
		children := make(map[int64][]span)
		var client *span
		for i := range ss {
			children[ss[i].parent] = append(children[ss[i].parent], ss[i])
			if ss[i].kind == spanClient {
				client = &ss[i]
			}
		}
		for _, s := range ss {
			switch s.kind {
			case spanRouter:
				hops := children[s.id]
				lt.routerSelf = append(lt.routerSelf, s.ms()-covered(s, hops))
				lt.subrequests = append(lt.subrequests, float64(len(hops)))
			case spanHop:
				inner := 0.0
				for _, c := range children[s.id] {
					inner += c.ms()
				}
				lt.routerHop = append(lt.routerHop, s.ms()-inner)
			case spanService:
				lt.handler = append(lt.handler, s.ms())
				lt.respKB = append(lt.respKB, float64(s.respBytes)/1024)
			case spanKernel:
				lt.kernel = append(lt.kernel, s.ms())
				if s.end-s.start > overrun {
					lt.kernelOverruns++
				}
			}
		}
		if client == nil {
			continue
		}
		if outer := children[client.id]; len(outer) == 1 {
			lt.transportSelf = append(lt.transportSelf, client.ms()-outer[0].ms())
		}
		self, n := 0.0, 0
		for _, s := range ss {
			if s.kind == spanService {
				self += s.ms() - covered(s, children[s.id])
				n++
			}
		}
		if n > 0 {
			lt.serviceSelf = append(lt.serviceSelf, max(0, self-queueMS[req]))
		}
	}
	return lt
}

// covered returns how many milliseconds of parent's interval the union of
// the child spans covers.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return float64(total) / 1e6
}
