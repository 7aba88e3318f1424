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
// The process shuts down gracefully on SIGINT/SIGTERM, within -grace: open
// event streams end, in-flight requests finish, running jobs are cancelled,
// queued jobs are checkpointed to -store (or cancelled when no store is
// configured), and the warm cache takes its final snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"crsharing"
	"crsharing/internal/engine"
	"crsharing/internal/service"
)

func main() {
	o := service.DefaultOptions()
	addr := flag.String("addr", ":8080", "listen address")
	flag.StringVar(&o.DefaultSolver, "solver", o.DefaultSolver, "solver used when a request names none")
	flag.IntVar(&o.CacheShards, "cache-shards", o.CacheShards, "memo cache shard count")
	flag.IntVar(&o.CacheCapacity, "cache-capacity", o.CacheCapacity, "memo cache capacity (evaluations, across all shards); 0 disables caching")
	flag.DurationVar(&o.DefaultTimeout, "default-timeout", o.DefaultTimeout, "deadline for requests that specify none")
	flag.DurationVar(&o.MaxTimeout, "max-timeout", o.MaxTimeout, "upper clamp on request-supplied deadlines")
	flag.IntVar(&o.MaxBatch, "max-batch", o.MaxBatch, "maximum instances per batch request")
	flag.IntVar(&o.MaxConcurrent, "max-concurrent", o.MaxConcurrent, "global cap on concurrently running synchronous solves")
	flag.IntVar(&o.Workers, "workers", o.Workers, "async job worker pool size")
	flag.IntVar(&o.QueueDepth, "queue", o.QueueDepth, "async job queue depth; 0 disables the job API")
	flag.StringVar(&o.StoreDir, "store", o.StoreDir, "directory for durable job records; empty keeps jobs in memory only")
	flag.DurationVar(&o.JobTimeout, "job-timeout", o.JobTimeout, "solve budget for jobs that specify none")
	flag.DurationVar(&o.JobMaxTimeout, "job-max-timeout", o.JobMaxTimeout, "upper clamp on job-supplied solve budgets")
	flag.IntVar(&o.JobRetention, "job-retention", o.JobRetention, "job records kept in memory; oldest finished records beyond this are evicted")
	grace := flag.Duration("grace", 10*time.Second, "graceful shutdown budget")
	flag.Func("tenants", "per-tenant admission quotas, name:weight[:maxinflight[:maxqueued[:priority]]],... (e.g. gold:3,free:1:4:32:1)", func(spec string) (err error) {
		o.Tenants, err = engine.ParseTenants(spec)
		return err
	})
	flag.DurationVar(&o.ShedRetryAfter, "shed-retry-after", o.ShedRetryAfter, "Retry-After hint attached to quota sheds (429s)")
	flag.StringVar(&o.CacheDir, "cache-dir", o.CacheDir, "directory for the persistent warm cache; empty keeps the memo cache in memory only")
	flag.DurationVar(&o.CacheFlush, "cache-flush", o.CacheFlush, "interval between periodic cache snapshots to -cache-dir")
	flag.Func("api-keys", "API key to tenant mapping, key=tenant,... (keys arrive as X-API-Key or Authorization: Bearer)", func(spec string) (err error) {
		o.APIKeys, err = service.ParseAPIKeys(spec)
		return err
	})
	flag.Parse()

	// Catch the signals before serving, so a client that saw the server up
	// can always stop it gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	backend, err := service.Build(o, ln)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if o.CacheDir != "" && o.CacheCapacity > 0 {
		rep := backend.CacheLoad
		log.Printf("crserved: warm cache: restored %d evaluations from %s (%d skipped, %d corrupt files quarantined)",
			rep.Restored, o.CacheDir, rep.Skipped, rep.Quarantined)
	}
	log.Printf("crserved %s listening on %s (solver=%s cache=%d max-concurrent=%d workers=%d queue=%d store=%q)",
		crsharing.Version, *addr, o.DefaultSolver, o.CacheCapacity, o.MaxConcurrent, o.Workers, o.QueueDepth, o.StoreDir)

	<-ctx.Done()
	cctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := backend.Close(cctx); err != nil {
		log.Fatal(err)
	}
	log.Print("crserved: shut down cleanly")
}
