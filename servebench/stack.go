package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/router"
	"crsharing/internal/service"
	"crsharing/internal/solver"
)

// crserved's flag defaults, which every backend of the benchmark mirrors.
const (
	defaultSolver   = "portfolio"
	maxConcurrent   = 16
	cacheShards     = 16
	cacheCapacity   = 4096
	maxBatch        = 1024
	jobWorkers      = 4
	jobQueue        = 256
	jobTimeout      = 10 * time.Minute
	jobMaxTimeout   = time.Hour
	jobRetention    = 4096
	shutdownTimeout = 10 * time.Second
)

// backend is one crserved process built in-process: engine, memo cache, job
// manager and HTTP layer behind a loopback listener.
type backend struct {
	eng   *engine.Engine
	cache *solver.Cache
	jobs  *jobs.Manager
	ts    *httptest.Server
}

// stack is the served system one workload drives: a single backend, or a
// router over two backends.
type stack struct {
	url      string
	backends []*backend
	router   *router.Router
	routerTS *httptest.Server
	proxy    *http.Transport // the router's transport to the backends
}

// newStack builds the stack for w. With a tracer, the registry, the handlers
// and the router's proxy transport are wrapped to record spans; without one,
// the stack is exactly what crserved and crrouter build from their defaults.
func newStack(w *workload, tr *tracer) (*stack, error) {
	n := 1
	if w.fleet {
		n = 2
	}
	s := &stack{}
	for i := 0; i < n; i++ {
		b, err := newBackend(tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, b)
	}
	if !w.fleet {
		s.url = s.backends[0].ts.URL
		return s, nil
	}
	// The router places backends on its hash ring by name. Named by their
	// loopback URLs, whose ports change from run to run, the backends would
	// split the instances differently in every run; fixed names give every
	// run the same split. The router's transport dials the listener behind
	// each name and is otherwise http.DefaultTransport, which crrouter uses.
	listeners := map[string]string{}
	var names []string
	for i, b := range s.backends {
		host := fmt.Sprintf("servebench-backend-%d", i)
		listeners[host+":80"] = b.ts.Listener.Addr().String()
		names = append(names, "http://"+host)
	}
	s.proxy = http.DefaultTransport.(*http.Transport).Clone()
	// Loopback URLs bypass an HTTP proxy from the environment; the names
	// would not, so the clone uses none.
	s.proxy.Proxy = nil
	dial := s.proxy.DialContext
	s.proxy.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if l, ok := listeners[addr]; ok {
			addr = l
		}
		return dial(ctx, network, addr)
	}
	cfg := router.Config{Backends: names, Client: &http.Client{Transport: s.proxy}}
	if tr != nil {
		cfg.Client = &http.Client{Transport: &hopTransport{tr: tr, base: s.proxy}}
	}
	rt, err := router.New(cfg)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	rt.Start()
	s.router = rt
	s.routerTS = httptest.NewServer(tr.handler(spanRouter, rt.Handler()))
	s.url = s.routerTS.URL
	return s, nil
}

func newBackend(tr *tracer) (*backend, error) {
	reg := solver.Default()
	if tr != nil {
		reg = tr.registry(reg)
	}
	cache := solver.NewCache(cacheShards, cacheCapacity)
	eng, err := engine.New(engine.Config{
		Registry:      reg,
		Cache:         cache,
		DefaultSolver: defaultSolver,
		MaxConcurrent: maxConcurrent,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	mgr, err := jobs.New(jobs.Config{
		Engine:         eng,
		DefaultSolver:  defaultSolver,
		Workers:        jobWorkers,
		QueueDepth:     jobQueue,
		DefaultTimeout: jobTimeout,
		MaxTimeout:     jobMaxTimeout,
		MaxRecords:     jobRetention,
	})
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("jobs: %w", err)
	}
	srv, err := service.New(service.Config{Engine: eng, MaxBatch: maxBatch, Jobs: mgr, Version: "servebench"})
	if err != nil {
		eng.Close()
		closeJobs(mgr)
		return nil, fmt.Errorf("service: %w", err)
	}
	return &backend{
		eng:   eng,
		cache: cache,
		jobs:  mgr,
		ts:    httptest.NewServer(tr.handler(spanService, srv.Handler())),
	}, nil
}

func closeJobs(mgr *jobs.Manager) {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	_ = mgr.Close(ctx) // no jobs are ever submitted; nothing to report
}

// close tears the stack down outermost first and waits for every listener,
// probe loop and worker to stop.
func (s *stack) close() {
	if s.routerTS != nil {
		s.routerTS.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, b := range s.backends {
		b.ts.Close()
		b.eng.Close()
		closeJobs(b.jobs)
	}
	if s.proxy != nil {
		s.proxy.CloseIdleConnections()
	}
}

// counters is the sum of the backends' cache and engine counters.
type counters struct {
	hits, misses, coalesced, evictions uint64
	fresh, warm                        uint64
}

func (s *stack) counters() counters {
	var c counters
	for _, b := range s.backends {
		cs := b.cache.Stats()
		es := b.eng.Snapshot()
		c.hits += cs.Hits
		c.misses += cs.Misses
		c.coalesced += cs.Coalesced
		c.evictions += cs.Evictions
		c.fresh += es.SourceSolve
		c.warm += es.WarmStarts
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		hits:      c.hits - o.hits,
		misses:    c.misses - o.misses,
		coalesced: c.coalesced - o.coalesced,
		evictions: c.evictions - o.evictions,
		fresh:     c.fresh - o.fresh,
		warm:      c.warm - o.warm,
	}
}
