package harness

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/service"
	"crsharing/internal/solver"
)

// StackConfig configures an in-process stack. Zero values take the
// documented defaults, which mirror a small production deployment: a 16x4096
// memo cache, no negative caching and no API keys.
type StackConfig struct {
	// DefaultSolver is used by requests that name none (default "portfolio").
	DefaultSolver string
	// MaxConcurrent is the engine's global admission budget shared by sync,
	// batch and job solves (default 64 — the harness deliberately saturates
	// the server, and a generous budget keeps queueing delay out of the
	// measured latencies).
	MaxConcurrent int
	// Workers / QueueDepth size the job subsystem (defaults 4 / 1024).
	Workers, QueueDepth int
	// JobDefaultTimeout / JobMaxTimeout are the job deadline policy
	// (defaults 1m / 10m).
	JobDefaultTimeout, JobMaxTimeout time.Duration
	// Version is reported by /healthz (default "harness").
	Version string
	// Tenants are per-tenant admission quotas for the engine's fair
	// scheduler; unlisted tenants get the engine's default quota.
	Tenants map[string]engine.TenantConfig
	// CacheDir, when set, persists the memo cache there: warm-loaded on
	// start, flushed every 30s and on Close.
	CacheDir string
}

// Stack is the full production stack — one shared engine (registry, memo
// cache, admission scheduler, telemetry), the job manager and the HTTP layer
// — behind an httptest listener. It is what cmd/crload drives when no -addr
// is given and what end-to-end tests wire up in one call.
type Stack struct {
	// URL is the base URL of the listening server.
	URL string
	// Engine is the shared solve pipeline (useful for telemetry snapshots).
	Engine *engine.Engine
	// Manager is the job subsystem.
	Manager *jobs.Manager
	// Server is the HTTP layer.
	Server *service.Server
	// CacheLoad reports what the cache persister restored on start (zero
	// when no CacheDir is configured).
	CacheLoad solver.LoadReport

	listener  *httptest.Server
	persister *solver.Persister
}

// NewStack wires registry, shared engine, job manager and HTTP layer behind
// an httptest listener. Close releases everything in order.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.DefaultSolver == "" {
		cfg.DefaultSolver = "portfolio"
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.JobDefaultTimeout <= 0 {
		cfg.JobDefaultTimeout = time.Minute
	}
	if cfg.JobMaxTimeout <= 0 {
		cfg.JobMaxTimeout = 10 * time.Minute
	}
	if cfg.Version == "" {
		cfg.Version = "harness"
	}

	cache := solver.NewCache(16, 4096)
	var persister *solver.Persister
	var loadRep solver.LoadReport
	if cfg.CacheDir != "" {
		p, err := solver.NewPersister(cache, cfg.CacheDir, 0)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		rep, err := p.Load()
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		p.Start()
		persister, loadRep = p, rep
	}

	eng, err := engine.New(engine.Config{
		Registry:      solver.Default(),
		Cache:         cache,
		DefaultSolver: cfg.DefaultSolver,
		MaxConcurrent: cfg.MaxConcurrent,
		Tenants:       cfg.Tenants,
	})
	if err != nil {
		if persister != nil {
			_ = persister.Close()
		}
		return nil, fmt.Errorf("harness: %w", err)
	}
	manager, err := jobs.New(jobs.Config{
		Engine:         eng,
		DefaultSolver:  cfg.DefaultSolver,
		Workers:        cfg.Workers,
		QueueDepth:     cfg.QueueDepth,
		DefaultTimeout: cfg.JobDefaultTimeout,
		MaxTimeout:     cfg.JobMaxTimeout,
	})
	if err != nil {
		if persister != nil {
			_ = persister.Close()
		}
		return nil, fmt.Errorf("harness: %w", err)
	}
	srv, err := service.New(service.Config{
		Engine:  eng,
		Jobs:    manager,
		Version: cfg.Version,
	})
	if err != nil {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = manager.Close(cctx)
		if persister != nil {
			_ = persister.Close()
		}
		return nil, fmt.Errorf("harness: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	return &Stack{
		URL:       ts.URL,
		Engine:    eng,
		Manager:   manager,
		Server:    srv,
		CacheLoad: loadRep,
		listener:  ts,
		persister: persister,
	}, nil
}

// Close tears the stack down in order: listener first (drains handlers),
// then the job manager (cancels running jobs), then the cache persister
// (final flush). It returns the first error.
func (s *Stack) Close() error {
	s.listener.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.Manager.Close(ctx)
	if s.persister != nil {
		if perr := s.persister.Close(); err == nil {
			err = perr
		}
	}
	return err
}
