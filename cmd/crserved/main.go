// Command crserved is the long-running scheduling service: it serves solve
// requests over HTTP from the full solver registry, memoises evaluations in
// a sharded LRU cache keyed by canonical instance fingerprints, deduplicates
// concurrent identical solves, shards batch requests across a bounded
// worker pool, and runs solves too heavy for any HTTP deadline as
// asynchronous jobs with incumbent progress streaming and an optional
// on-disk result store.
//
// Usage:
//
//	crserved -addr :8080
//	crserved -addr :8080 -solver portfolio -cache-capacity 4096 -max-concurrent 16
//	crserved -addr :8080 -workers 8 -queue 1024 -store /var/lib/crserved/jobs
//
// Example session:
//
//	crgen -kind figure3 -n 12 > inst.json
//	curl -s localhost:8080/v1/solve -d "{\"instance\": $(cat inst.json)}"
//	curl -s localhost:8080/v1/jobs -d "{\"instance\": $(cat inst.json), \"solver\": \"branch-and-bound-parallel\"}"
//	curl -sN localhost:8080/v1/jobs/<id>/events
//	curl -s localhost:8080/metrics | grep crsharing_jobs
//
// See README.md for the full API reference and ARCHITECTURE.md for the
// system design.
//
// The process shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get -grace to finish, running jobs are cancelled, and queued jobs are
// checkpointed to -store (or cancelled when no store is configured).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crsharing"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/service"
	"crsharing/internal/solver"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	defaultSolver := flag.String("solver", "portfolio", "solver used when a request names none")
	cacheShards := flag.Int("cache-shards", 16, "memo cache shard count")
	cacheCapacity := flag.Int("cache-capacity", 4096, "memo cache capacity (evaluations, across all shards); 0 disables caching")
	defaultTimeout := flag.Duration("default-timeout", 30*time.Second, "deadline for requests that specify none")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "upper clamp on request-supplied deadlines")
	maxBatch := flag.Int("max-batch", 1024, "maximum instances per batch request")
	maxConcurrent := flag.Int("max-concurrent", 16, "global cap on concurrently running synchronous solves")
	workers := flag.Int("workers", 4, "async job worker pool size")
	queue := flag.Int("queue", 256, "async job queue depth; 0 disables the job API")
	storeDir := flag.String("store", "", "directory for durable job records; empty keeps jobs in memory only")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "solve budget for jobs that specify none")
	jobMaxTimeout := flag.Duration("job-max-timeout", time.Hour, "upper clamp on job-supplied solve budgets")
	jobRetention := flag.Int("job-retention", 4096, "job records kept in memory; oldest finished records beyond this are evicted")
	grace := flag.Duration("grace", 10*time.Second, "graceful shutdown budget")
	tenantSpec := flag.String("tenants", "", "per-tenant admission quotas, name:weight[:maxinflight[:maxqueued[:priority]]],... (e.g. gold:3,free:1:4:32:1)")
	shedRetryAfter := flag.Duration("shed-retry-after", time.Second, "Retry-After hint attached to quota sheds (429s)")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent warm cache; empty keeps the memo cache in memory only")
	cacheFlush := flag.Duration("cache-flush", 30*time.Second, "interval between periodic cache snapshots to -cache-dir")
	apiKeySpec := flag.String("api-keys", "", "API key to tenant mapping, key=tenant,... (keys arrive as X-API-Key or Authorization: Bearer)")
	flag.Parse()

	var tenants map[string]engine.TenantConfig
	if *tenantSpec != "" {
		var err error
		if tenants, err = engine.ParseTenants(*tenantSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	var apiKeys map[string]string
	if *apiKeySpec != "" {
		var err error
		if apiKeys, err = service.ParseAPIKeys(*apiKeySpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	var cache *solver.Cache
	var persister *solver.Persister
	if *cacheCapacity > 0 {
		cache = solver.NewCache(*cacheShards, *cacheCapacity)
		if *cacheDir != "" {
			p, err := solver.NewPersister(cache, *cacheDir, *cacheFlush)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			rep, err := p.Load()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			log.Printf("crserved: warm cache: restored %d evaluations from %s (%d skipped, %d corrupt files quarantined)",
				rep.Restored, *cacheDir, rep.Skipped, rep.Quarantined)
			p.Start()
			persister = p
		}
	}

	// One engine for the whole process: the synchronous handlers, the batch
	// fan-out and the job workers all draw from this admission budget and
	// memo cache, and all report into the same solve telemetry.
	eng, err := engine.New(engine.Config{
		Registry:       solver.Default(),
		Cache:          cache,
		DefaultSolver:  *defaultSolver,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		MaxConcurrent:  *maxConcurrent,
		Tenants:        tenants,
		ShedRetryAfter: *shedRetryAfter,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var manager *jobs.Manager
	if *queue > 0 {
		var store jobs.Store
		if *storeDir != "" {
			fs, err := jobs.NewFileStore(*storeDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			store = fs
		}
		manager, err = jobs.New(jobs.Config{
			Engine:         eng,
			DefaultSolver:  *defaultSolver,
			Workers:        *workers,
			QueueDepth:     *queue,
			DefaultTimeout: *jobTimeout,
			MaxTimeout:     *jobMaxTimeout,
			MaxRecords:     *jobRetention,
			Store:          store,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	srv, err := service.New(service.Config{
		Engine:   eng,
		MaxBatch: *maxBatch,
		Jobs:     manager,
		APIKeys:  apiKeys,
		Version:  crsharing.Version,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("crserved %s listening on %s (solver=%s cache=%d max-concurrent=%d workers=%d queue=%d store=%q)",
		crsharing.Version, *addr, *defaultSolver, *cacheCapacity, *maxConcurrent, *workers, *queue, *storeDir)
	runErr := srv.Run(ctx, *addr, *grace)
	// Close the job manager even when the listener tear-down erred: running
	// jobs must be cancelled and queued jobs checkpointed either way.
	if manager != nil {
		cctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := manager.Close(cctx); err != nil {
			log.Printf("crserved: job shutdown: %v", err)
		}
	}
	// Final warm-cache snapshot: everything memoised this run is available to
	// the next process.
	if persister != nil {
		if err := persister.Close(); err != nil {
			log.Printf("crserved: cache snapshot: %v", err)
		}
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
	log.Print("crserved: shut down cleanly")
}
