// Command crload is the end-to-end load driver of the scheduling service: it
// expands a seed into the deterministic workload corpus of internal/harness,
// plans an open-loop arrival schedule of synchronous solves, batch solves,
// asynchronous jobs (with SSE follow) and online mutation chains before the
// run starts, plays it against a server the way a recording is replayed,
// revalidates every returned schedule with the paper's invariant checkers,
// and reports per-class latency distributions, throughput and the cache-hit
// accounting scraped from /metrics.
//
// With no -addr it builds crserved's backend in-process (service.Build: the
// sharded memo cache, engine, job manager and HTTP layer) on a loopback
// listener, so a single command is a complete end-to-end smoke:
//
//	crload -seed 1 -duration 2s
//	crload -seed 7 -duration 10s -rate 500 -mix solve=6,batch=2,jobs=2 -json BENCH_load.json
//	crload -addr http://127.0.0.1:8080 -duration 30s
//
// Each process runs one driver. Beyond that it speaks the fleet protocol:
//
//	crload -seed 1 -json a.json                       # one of several processes, each writing its report
//	crload -seed 1 -record run.jsonl                  # write the played schedule as versioned JSONL
//	crload -replay run.jsonl -replay-speed 2          # re-issue it bit-exactly (2x compressed schedule)
//	crload -merge a.json,b.json -slo slo.json         # pool per-process reports, then gate
//	crload -seed 1 -slo .github/slo.json              # hard SLO gate for CI
//
// A recording holds each arrival's planned offset (divided by the replay
// speed when a replay is re-recorded), not the time the request was actually
// issued, and each online entry names its mutation chain, so a replay sends
// warm starts the way the recorded run did.
//
// And the multi-node tier: -addrs lists the crserved backends behind a
// crrouter, so the report's cache accounting sums every backend's /metrics
// (plus the router's) instead of one process. With -addr the router at that
// URL is driven; without it an in-process crrouter is spun up over the
// backends:
//
//	crload -addr http://127.0.0.1:8090 -addrs http://127.0.0.1:8081,http://127.0.0.1:8082
//	crload -addrs http://127.0.0.1:8081,http://127.0.0.1:8082 -duration 5s
//
// Exit codes: 0 OK; 1 invariant violation or -min-* floor missed; 2 setup or
// I/O error; 4 SLO violation (the distinct code lets CI tell a gate breach
// from a broken run).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crsharing/internal/engine"
	"crsharing/internal/harness"
	"crsharing/internal/router"
	"crsharing/internal/service"
)

// Exit codes of the crload process.
const (
	exitOK        = 0
	exitViolation = 1 // oracle violations or -min-* floors missed
	exitSetup     = 2 // bad flags, unreachable server, I/O errors
	exitSLO       = 4 // declarative SLO gate failed
)

// inProcessMaxConcurrent is the admission budget of the in-process backend,
// the one crserved default crload overrides: the driver deliberately
// saturates the server, and a generous budget keeps queueing delay out of
// the measured latencies.
const inProcessMaxConcurrent = 64

// setupFailed reports err and returns the setup exit code.
func setupFailed(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return exitSetup
}

func main() { os.Exit(run()) }

// run drives one crload invocation and returns its exit code. It returns
// instead of exiting so the deferred tear-downs run on every path; the
// in-process backend's takes the warm cache's final snapshot.
func run() int {
	addr := flag.String("addr", "", "base URL of a running crserved (e.g. http://127.0.0.1:8080); empty drives an in-process server")
	addrsSpec := flag.String("addrs", "", "comma-separated base URLs of the crserved backends behind a router; every backend's /metrics joins the fleet accounting, and without -addr an in-process crrouter is spun up over them")
	seed := flag.Int64("seed", 1, "corpus seed; the same seed replays the byte-identical workload")
	duration := flag.Duration("duration", 2*time.Second, "how long to generate arrivals")
	rate := flag.Float64("rate", 200, "open-loop arrival rate in requests per second")
	mixSpec := flag.String("mix", "", "traffic mix, e.g. solve=8,batch=1,jobs=1 (default); an online=N class replays seeded mutation chains, each request sending the chain's latest answer as its warm start")
	solverName := flag.String("solver", "", "solver to request; empty uses the server default")
	solveTimeout := flag.Duration("solve-timeout", 2*time.Second, "deadline sent with sync and batch solves (the portfolio returns its best-effort result at the deadline)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Second, "solve budget sent with async job submissions")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "per-request budget, including an async job's follow")
	batchSize := flag.Int("batch-size", 6, "instances per batch request")
	maxInflight := flag.Int("max-inflight", 256, "cap on concurrently outstanding requests; arrivals beyond it are shed")
	jsonOut := flag.String("json", "", "write the report as JSON to this file")
	minCacheHits := flag.Int("min-cache-hits", 0, "fail unless the run produced at least this many cache-served responses")
	tenantSpec := flag.String("tenants", "", "multi-tenant traffic, name:weight:rps,... (e.g. gold:3:150,free:1:50); weights also configure the in-process server")
	minTenantRequests := flag.Int("min-tenant-requests", 0, "fail unless every tenant completed at least this many non-error requests (starvation gate)")
	cacheDir := flag.String("cache-dir", "", "warm-cache directory for the in-process server; reused across runs to test cold/warm starts")
	recordPath := flag.String("record", "", "write the played arrival schedule (planned offsets, classes, tenants, payloads, online chains, outcomes) to this versioned JSONL file")
	replayPath := flag.String("replay", "", "re-issue a recorded request stream bit-exactly instead of planning open-loop arrivals")
	replaySpeed := flag.Float64("replay-speed", 1, "compress (>1) or stretch (<1) the replayed arrival schedule; the request sequence is unchanged")
	mergeSpec := flag.String("merge", "", "comma-separated report JSON files to pool into one fleet report (no load is driven)")
	sloPath := flag.String("slo", "", "declarative SLO spec (JSON); violations exit with code 4")
	minWarmStarts := flag.Int("min-warm-starts", 0, "fail unless at least this many fresh solves were warm-started")
	flag.Parse()

	var slo *harness.SLO
	if *sloPath != "" {
		var err error
		if slo, err = harness.LoadSLO(*sloPath); err != nil {
			return setupFailed(err)
		}
	}

	if *mergeSpec != "" {
		return mergeReports(*mergeSpec, *jsonOut, slo, *minCacheHits)
	}

	mix, err := harness.ParseMix(*mixSpec)
	if err != nil {
		return setupFailed(err)
	}
	var tenantLoads []harness.TenantLoad
	if *tenantSpec != "" {
		if tenantLoads, err = harness.ParseTenantLoads(*tenantSpec); err != nil {
			return setupFailed(err)
		}
	}

	cfg := harness.Config{
		Mix:            mix,
		Rate:           *rate,
		Duration:       *duration,
		Solver:         *solverName,
		SolveTimeout:   *solveTimeout,
		JobTimeout:     *jobTimeout,
		RequestTimeout: *reqTimeout,
		BatchSize:      *batchSize,
		MaxInflight:    *maxInflight,
		Tenants:        tenantLoads,
	}
	if *replayPath != "" {
		recording, err := harness.LoadRecording(*replayPath)
		if err != nil {
			return setupFailed(err)
		}
		fmt.Fprintf(os.Stderr, "crload: replaying %d recorded arrivals from %s (speed %gx)\n",
			len(recording.Entries), *replayPath, *replaySpeed)
		cfg.Replay = recording
		cfg.ReplaySpeed = *replaySpeed
		cfg.Tenants = nil // replay re-issues the recording's own tenants
	} else {
		corpus := harness.BuildCorpus(*seed)
		if err := corpus.Validate(); err != nil {
			return setupFailed(err)
		}
		cfg.Corpus = corpus
	}
	var backendAddrs []string
	for _, a := range strings.Split(*addrsSpec, ",") {
		if a = strings.TrimSuffix(strings.TrimSpace(a), "/"); a != "" {
			backendAddrs = append(backendAddrs, a)
		}
	}

	base := *addr
	if base == "" && len(backendAddrs) > 0 {
		// Fleet mode without a running router: spin up an in-process crrouter
		// over the listed backends and drive that.
		rt, err := router.New(router.Config{Backends: backendAddrs, Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "crload: "+format+"\n", args...)
		}})
		if err != nil {
			return setupFailed(err)
		}
		rt.Start()
		defer rt.Close()
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Fprintf(os.Stderr, "crload: driving in-process router at %s over %d backends\n", base, len(backendAddrs))
	}
	if base == "" {
		// crserved's backend, built from crserved's defaults.
		o := service.DefaultOptions()
		o.MaxConcurrent = inProcessMaxConcurrent
		o.CacheDir = *cacheDir
		if len(tenantLoads) > 0 {
			o.Tenants = make(map[string]engine.TenantConfig, len(tenantLoads))
			for _, tl := range tenantLoads {
				o.Tenants[tl.Name] = engine.TenantConfig{Weight: tl.Weight}
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return setupFailed(err)
		}
		backend, err := service.Build(o, ln)
		if err != nil {
			return setupFailed(err)
		}
		defer func() {
			// crserved's default -grace.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// A connection the driver dialled but never sent a request on
			// would hold http.Server.Shutdown for five seconds.
			http.DefaultClient.CloseIdleConnections()
			if err := backend.Close(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "crload: shutdown: %v\n", err)
			}
		}()
		base = backend.URL
		fmt.Fprintf(os.Stderr, "crload: driving in-process server at %s\n", base)
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "crload: warm cache: restored %d evaluations from %s (%d corrupt files quarantined)\n",
				backend.CacheLoad.Restored, *cacheDir, backend.CacheLoad.Quarantined)
		}
	}
	cfg.BaseURL = base
	if len(backendAddrs) > 0 {
		// The run's cache accounting must span the whole fleet: scrape every
		// backend plus the router itself and sum the (counter) deltas.
		for _, a := range backendAddrs {
			cfg.MetricsURLs = append(cfg.MetricsURLs, a+"/metrics")
		}
		cfg.MetricsURLs = append(cfg.MetricsURLs, base+"/metrics")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	driver, err := harness.NewDriver(cfg)
	if err != nil {
		return setupFailed(err)
	}
	report, err := driver.Run(ctx)
	if err != nil {
		return setupFailed(err)
	}

	if *recordPath != "" {
		recording := driver.Recording()
		if err := recording.WriteFile(*recordPath); err != nil {
			return setupFailed(err)
		}
		fmt.Fprintf(os.Stderr, "crload: recorded %d arrivals to %s\n", len(recording.Entries), *recordPath)
	}

	fmt.Print(report.Text())
	if err := writeJSON(report, *jsonOut); err != nil {
		return setupFailed(err)
	}

	code := exitOK
	if n := report.ViolationCount; n > 0 {
		fmt.Fprintf(os.Stderr, "crload: FAIL: %d invariant violation(s)\n", n)
		code = exitViolation
	}
	if hits := int(report.Cache.CacheServed); hits < *minCacheHits {
		fmt.Fprintf(os.Stderr, "crload: FAIL: %d cache-served responses, need at least %d\n", hits, *minCacheHits)
		code = exitViolation
	}
	if report.WarmStarted < *minWarmStarts {
		fmt.Fprintf(os.Stderr, "crload: FAIL: %d warm-started solves, need at least %d\n", report.WarmStarted, *minWarmStarts)
		code = exitViolation
	}
	if *minTenantRequests > 0 {
		for _, tl := range tenantLoads {
			ts := report.Tenants[tl.Name]
			served := 0
			if ts != nil {
				served = ts.Requests - ts.Errors
			}
			if served < *minTenantRequests {
				fmt.Fprintf(os.Stderr, "crload: FAIL: tenant %q completed %d non-error requests, need at least %d\n",
					tl.Name, served, *minTenantRequests)
				code = exitViolation
			}
		}
	}
	code = gateSLO(slo, report, code)
	if code == exitOK {
		fmt.Fprintf(os.Stderr, "crload: OK: %d responses validated, zero invariant violations\n", report.Validated)
	}
	return code
}

// mergeReports pools previously written report JSON files (the cross-process
// half of distributed drive), re-renders, and applies the same gates a live
// run would.
func mergeReports(spec, jsonOut string, slo *harness.SLO, minCacheHits int) int {
	var reports []*harness.Report
	for _, path := range strings.Split(spec, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return setupFailed(err)
		}
		r, err := harness.ParseReport(data)
		if err != nil {
			return setupFailed(fmt.Errorf("%s: %w", path, err))
		}
		reports = append(reports, r)
	}
	merged, err := harness.MergeReports(reports...)
	if err != nil {
		return setupFailed(err)
	}
	fmt.Fprintf(os.Stderr, "crload: merged %d reports (%d driver runs)\n", len(reports), merged.Shards)
	fmt.Print(merged.Text())
	if err := writeJSON(merged, jsonOut); err != nil {
		return setupFailed(err)
	}

	code := exitOK
	if merged.ViolationCount > 0 {
		fmt.Fprintf(os.Stderr, "crload: FAIL: %d invariant violation(s)\n", merged.ViolationCount)
		code = exitViolation
	}
	if hits := int(merged.Cache.CacheServed); hits < minCacheHits {
		fmt.Fprintf(os.Stderr, "crload: FAIL: %d cache-served responses, need at least %d\n", hits, minCacheHits)
		code = exitViolation
	}
	return gateSLO(slo, merged, code)
}

// gateSLO evaluates the SLO (when given) and escalates the exit code to the
// distinct SLO code on violation.
func gateSLO(slo *harness.SLO, report *harness.Report, code int) int {
	if slo == nil {
		return code
	}
	violations := slo.Evaluate(report)
	fmt.Fprintln(os.Stderr, harness.RenderSLOVerdict(slo, violations))
	if len(violations) > 0 {
		return exitSLO
	}
	return code
}

func writeJSON(report *harness.Report, path string) error {
	if path == "" {
		return nil
	}
	data, err := report.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
