package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"crsharing"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/solver"
)

// Options configures a backend built by Build. Each field is one crserved
// flag, and DefaultOptions returns the flag defaults: crserved binds every
// flag to its field, so the command and every in-process backend share one
// set of defaults.
type Options struct {
	// DefaultSolver is used by requests that name none (-solver).
	DefaultSolver string
	// CacheShards and CacheCapacity size the memo cache (-cache-shards,
	// -cache-capacity); a capacity of 0 disables caching.
	CacheShards, CacheCapacity int
	// CacheDir persists the memo cache (-cache-dir): Build restores it, and
	// it is snapshotted every CacheFlush (-cache-flush) and by Close. Empty
	// keeps the cache in memory only.
	CacheDir   string
	CacheFlush time.Duration
	// DefaultTimeout and MaxTimeout bound synchronous deadlines
	// (-default-timeout, -max-timeout).
	DefaultTimeout, MaxTimeout time.Duration
	// MaxBatch caps the instances of one batch request (-max-batch).
	MaxBatch int
	// MaxConcurrent is the engine's admission budget, shared by synchronous
	// solves, batch shards and job workers (-max-concurrent).
	MaxConcurrent int
	// Tenants are the per-tenant admission quotas (-tenants), and
	// ShedRetryAfter is the Retry-After hint on quota sheds
	// (-shed-retry-after).
	Tenants        map[string]engine.TenantConfig
	ShedRetryAfter time.Duration
	// APIKeys maps API keys to tenant names (-api-keys).
	APIKeys map[string]string
	// Workers and QueueDepth size the job subsystem (-workers, -queue); a
	// depth of 0 disables the job API.
	Workers, QueueDepth int
	// JobTimeout and JobMaxTimeout bound job solve budgets (-job-timeout,
	// -job-max-timeout), and JobRetention caps the job records kept in
	// memory (-job-retention).
	JobTimeout, JobMaxTimeout time.Duration
	JobRetention              int
	// StoreDir makes job records durable (-store); empty keeps them in
	// memory only.
	StoreDir string
}

// DefaultOptions returns crserved's flag defaults.
func DefaultOptions() Options {
	return Options{
		DefaultSolver:  "portfolio",
		CacheShards:    16,
		CacheCapacity:  4096,
		CacheFlush:     30 * time.Second,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		MaxBatch:       1024,
		MaxConcurrent:  16,
		ShedRetryAfter: time.Second,
		Workers:        4,
		QueueDepth:     256,
		JobTimeout:     10 * time.Minute,
		JobMaxTimeout:  time.Hour,
		JobRetention:   4096,
	}
}

// Backend is one serving process: the memo cache and its persister, one
// engine shared by the handlers and the job workers, the job manager and
// the HTTP server, serving on a listener. Build starts it; Close stops it.
type Backend struct {
	// URL is the base URL of the listener, e.g. "http://127.0.0.1:8080".
	URL string
	// CacheLoad reports what Build restored from Options.CacheDir.
	CacheLoad solver.LoadReport

	srv       *Server
	jobs      *jobs.Manager // nil when the job API is disabled
	persister *solver.Persister
	http      *http.Server
	served    chan error // the result of http.Server.Serve
}

// Build wires a backend from o and serves it on ln until Close. It owns ln
// from then on: Close closes it, and so does a Build that fails.
func Build(o Options, ln net.Listener) (*Backend, error) {
	b, err := build(o)
	if err != nil {
		ln.Close()
		return nil, err
	}
	b.URL = "http://" + ln.Addr().String()
	if b.persister != nil {
		b.persister.Start()
	}
	b.http = &http.Server{Handler: b.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.http.Serve(ln) }()
	return b, nil
}

// build wires everything but the listener. The persister is loaded but not
// started, so a failure leaves nothing running but the job manager, which
// it closes.
func build(o Options) (*Backend, error) {
	b := &Backend{}
	var cache *solver.Cache
	if o.CacheCapacity > 0 {
		cache = solver.NewCache(o.CacheShards, o.CacheCapacity)
		if o.CacheDir != "" {
			p, err := solver.NewPersister(cache, o.CacheDir, o.CacheFlush)
			if err != nil {
				return nil, err
			}
			if b.CacheLoad, err = p.Load(); err != nil {
				return nil, err
			}
			b.persister = p
		}
	}
	eng, err := engine.New(engine.Config{
		Registry:       solver.Default(),
		Cache:          cache,
		DefaultSolver:  o.DefaultSolver,
		DefaultTimeout: o.DefaultTimeout,
		MaxTimeout:     o.MaxTimeout,
		MaxConcurrent:  o.MaxConcurrent,
		Tenants:        o.Tenants,
		ShedRetryAfter: o.ShedRetryAfter,
	})
	if err != nil {
		return nil, err
	}
	if o.QueueDepth > 0 {
		var store jobs.Store
		if o.StoreDir != "" {
			fs, err := jobs.NewFileStore(o.StoreDir)
			if err != nil {
				return nil, err
			}
			store = fs
		}
		b.jobs, err = jobs.New(jobs.Config{
			Engine:         eng,
			DefaultSolver:  o.DefaultSolver,
			Workers:        o.Workers,
			QueueDepth:     o.QueueDepth,
			DefaultTimeout: o.JobTimeout,
			MaxTimeout:     o.JobMaxTimeout,
			MaxRecords:     o.JobRetention,
			Store:          store,
		})
		if err != nil {
			return nil, err
		}
	}
	b.srv, err = New(Config{
		Engine:   eng,
		MaxBatch: o.MaxBatch,
		Jobs:     b.jobs,
		APIKeys:  o.APIKeys,
		Version:  crsharing.Version,
	})
	if err != nil {
		if b.jobs != nil {
			_ = b.jobs.Close(context.Background()) // the build error is the one to report
		}
		return nil, err
	}
	return b, nil
}

// Close stops the backend in a fixed order. It ends open event streams,
// shuts the listener down (in-flight requests get until ctx is done, then
// their connections are closed), closes the job manager (running jobs are
// cancelled, queued ones are checkpointed to the store) and takes the final
// cache snapshot. Every step runs whatever an earlier one returned; Close
// joins their errors. It must be called once.
func (b *Backend) Close(ctx context.Context) error {
	close(b.srv.shutdown)
	err := b.http.Shutdown(ctx)
	if err != nil {
		b.http.Close()
	}
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	if b.jobs != nil {
		err = errors.Join(err, b.jobs.Close(ctx))
	}
	if b.persister != nil {
		err = errors.Join(err, b.persister.Close())
	}
	return err
}
