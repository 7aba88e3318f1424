package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/gen"
	"crsharing/internal/jobs"
	"crsharing/internal/service"
)

// Request class names, used as mix keys and report labels.
const (
	ClassSolve = "solve"
	ClassBatch = "batch"
	ClassJobs  = "jobs"
	// ClassOnline is the incremental-solving workload: instead of replaying
	// corpus instances verbatim, each arrival is one seeded mutation (swap,
	// drop, append, nudge — gen.Mutate) of the previous arrival's instance, so
	// the stream is a chain of near-duplicates the way an online scheduler
	// sees them. It exercises the warm-start path end to end: each arrival
	// sends the chain's latest returned schedule as warm_start, the engine
	// adapts it to the mutated instance, and the report accounts how many
	// solves it seeded.
	ClassOnline = "online"
)

// onlineChainLen is how many mutation steps an online chain walks before
// restarting from a fresh corpus base instance.
const onlineChainLen = 12

// Mix is the weighted traffic composition of a load run. Weights are
// relative; a zero weight disables the class.
type Mix struct {
	Solve  int `json:"solve"`
	Batch  int `json:"batch"`
	Jobs   int `json:"jobs"`
	Online int `json:"online,omitempty"`
}

// DefaultMix leans on synchronous solves with a sprinkle of batch and async
// traffic, the shape a cache-fronted service sees.
func DefaultMix() Mix { return Mix{Solve: 8, Batch: 1, Jobs: 1} }

// ParseMix parses a "solve=8,batch=1,jobs=1" specification. Omitted classes
// get weight zero; an empty string yields DefaultMix.
func ParseMix(s string) (Mix, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultMix(), nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Mix{}, fmt.Errorf("harness: mix entry %q is not class=weight", part)
		}
		var w int
		if _, err := fmt.Sscanf(v, "%d", &w); err != nil || w < 0 {
			return Mix{}, fmt.Errorf("harness: mix weight %q must be a non-negative integer", v)
		}
		switch k {
		case ClassSolve:
			m.Solve = w
		case ClassBatch:
			m.Batch = w
		case ClassJobs:
			m.Jobs = w
		case ClassOnline:
			m.Online = w
		default:
			return Mix{}, fmt.Errorf("harness: unknown mix class %q (want solve, batch, jobs or online)", k)
		}
	}
	if m.total() == 0 {
		return Mix{}, errors.New("harness: mix has no positive weight")
	}
	return m, nil
}

func (m Mix) total() int { return m.Solve + m.Batch + m.Jobs + m.Online }

// TenantLoad is one tenant's slice of a multi-tenant load run: the tenant
// name sent in the X-Tenant header, the admission weight to configure on an
// in-process server, and the tenant's own open-loop arrival rate.
type TenantLoad struct {
	// Name is the tenant identity sent with every request.
	Name string `json:"name"`
	// Weight is the engine-side fair-share weight (only used when the caller
	// also builds the server, e.g. crload's in-process backend); min 1.
	Weight int64 `json:"weight"`
	// Rate is the tenant's arrival rate in requests per second.
	Rate float64 `json:"rate_per_sec"`
}

// ParseTenantLoads parses a "name:weight:rps" comma-separated multi-tenant
// traffic spec, e.g. "gold:3:150,free:1:50". Weight and rps may be omitted
// (weight defaults to 1, rps to the driver's global -rate).
func ParseTenantLoads(spec string) ([]TenantLoad, error) {
	var out []TenantLoad
	seen := make(map[string]bool)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("harness: tenant spec %q: want name[:weight[:rps]]", entry)
		}
		tl := TenantLoad{Name: strings.TrimSpace(parts[0]), Weight: 1}
		if tl.Name == "" {
			return nil, fmt.Errorf("harness: tenant spec %q: empty name", entry)
		}
		if seen[tl.Name] {
			return nil, fmt.Errorf("harness: tenant spec: duplicate tenant %q", tl.Name)
		}
		seen[tl.Name] = true
		if len(parts) > 1 && strings.TrimSpace(parts[1]) != "" {
			w, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("harness: tenant spec %q: weight must be a positive integer", entry)
			}
			tl.Weight = w
		}
		if len(parts) > 2 && strings.TrimSpace(parts[2]) != "" {
			r, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
			if err != nil || r <= 0 {
				return nil, fmt.Errorf("harness: tenant spec %q: rps must be a positive number", entry)
			}
			tl.Rate = r
		}
		out = append(out, tl)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: tenant spec %q: no tenants", spec)
	}
	return out, nil
}

// pick draws a class proportionally to the weights.
func (m Mix) pick(rng *rand.Rand) string {
	n := rng.Intn(m.total())
	if n < m.Solve {
		return ClassSolve
	}
	if n < m.Solve+m.Batch {
		return ClassBatch
	}
	if n < m.Solve+m.Batch+m.Jobs {
		return ClassJobs
	}
	return ClassOnline
}

// Config configures a Driver. Zero values of optional fields are replaced by
// the documented defaults in NewDriver.
type Config struct {
	// BaseURL is the server to drive, e.g. "http://127.0.0.1:8080" or an
	// httptest.Server.URL; required.
	BaseURL string
	// Client is the HTTP client to use (default http.DefaultClient).
	Client *http.Client
	// Corpus supplies the instances to replay; required.
	Corpus *Corpus
	// Mix weights the request classes (default DefaultMix).
	Mix Mix
	// Rate is the open-loop arrival rate in requests per second (default
	// 200). The driver fires on this schedule regardless of how fast the
	// server answers; when MaxInflight is reached, arrivals are shed and
	// counted instead of queued, keeping the loop open.
	Rate float64
	// Duration is how long arrivals are generated (default 2s). In-flight
	// requests are drained afterwards.
	Duration time.Duration
	// Solver names the registry entry requests ask for; empty uses the
	// server default.
	Solver string
	// SolveTimeout is the deadline sent with sync and batch solves (default
	// 2s). The default portfolio races exact solvers that may not terminate
	// on hard instances; at the deadline it returns the best member result
	// found so far, so a short deadline trades schedule quality for bounded
	// latency rather than failing.
	SolveTimeout time.Duration
	// JobTimeout is the solve budget sent with async job submissions
	// (default 10s).
	JobTimeout time.Duration
	// RequestTimeout bounds each request including an async job's follow
	// (default 30s).
	RequestTimeout time.Duration
	// BatchSize is the number of instances per batch request (default 6).
	BatchSize int
	// MaxInflight caps concurrently outstanding requests (default 256).
	MaxInflight int
	// Tenants, when non-empty, turns the run multi-tenant: one arrival loop
	// per tenant at its own Rate, every request carrying the tenant's name in
	// the X-Tenant header, and the report gaining per-tenant accounting. When
	// empty the run is anonymous at the global Rate.
	Tenants []TenantLoad
	// Recorder, when set, captures every arrival (offset, class, tenant, full
	// instance payload, outcome) so the run can be re-issued bit-exactly with
	// Replay.
	Recorder *Recorder
	// Replay, when set, replaces the open-loop arrival generator: the
	// recording's entries are re-issued at their recorded offsets with their
	// recorded class, tenant and instances, so two runs are comparable
	// request-for-request. Mix, Rate, Duration and Tenants are ignored;
	// Corpus is optional.
	Replay *Recording
	// ReplaySpeed compresses (>1) or stretches (<1) the recorded arrival
	// schedule during Replay; 0 means 1 (as recorded). The request sequence
	// is unchanged either way.
	ReplaySpeed float64
	// MetricsURLs overrides where the run's metrics movement is scraped:
	// each URL is scraped before and after the run and the deltas are summed.
	// A fleet run driving a crrouter sets this to every backend's /metrics
	// (plus the router's own), so the report's cache accounting spans the
	// whole fleet instead of one process. Empty scrapes BaseURL+"/metrics".
	MetricsURLs []string
}

// TelemetryAgg folds the per-solve engine telemetry of one request class, so
// load runs double as solver-behaviour regressions: a change that blows up
// the search (nodes), stops finding incumbents, or stops hitting the cache
// shows up in the report delta even when latencies look fine.
type TelemetryAgg struct {
	// Nodes sums the search nodes / configurations of the class's solves
	// (cache replays re-count the original solve's effort — the point is the
	// per-class solver behaviour, not machine load).
	Nodes int64 `json:"nodes"`
	// Incumbents sums the incumbent improvements reported by the solves.
	Incumbents int64 `json:"incumbents"`
	// WarmStarts counts fresh solves that accepted a warm-start hint
	// (telemetry warm_start non-empty); cache replays never count.
	WarmStarts int `json:"warm_starts,omitempty"`
	// Sources counts results per cache source ("solve", "cache",
	// "coalesced").
	Sources map[string]int `json:"sources,omitempty"`
}

// add folds one solve's telemetry into the aggregate.
func (a *TelemetryAgg) add(tel *engine.Telemetry, source string) {
	if a.Sources == nil {
		a.Sources = make(map[string]int)
	}
	if source != "" {
		a.Sources[source]++
	}
	if tel != nil {
		a.Nodes += tel.Nodes
		a.Incumbents += tel.Incumbents
		if tel.WarmStart != "" {
			a.WarmStarts++
		}
	}
}

// ClassStats aggregates one request class of a finished run.
type ClassStats struct {
	// Requests counts completed requests of the class (including failures).
	Requests int `json:"requests"`
	// Errors counts transport failures, non-2xx responses and failed batch
	// results or jobs — excluding quota sheds, which Shed counts.
	Errors int `json:"errors"`
	// Shed counts responses the server refused over a tenant quota (HTTP 429
	// with Retry-After, or a per-result shed flag in a batch response). Sheds
	// are expected behaviour under overload, so they are counted apart from
	// Errors.
	Shed int `json:"shed"`
	// Cancelled counts batch results marked cancelled and jobs that ended
	// cancelled.
	Cancelled int `json:"cancelled"`
	// CacheServed counts responses answered from the cache or coalesced onto
	// an in-flight solve (sync solves only; batch hits are visible in the
	// run's cache accounting instead).
	CacheServed int `json:"cache_served"`
	// Incumbents counts SSE incumbent events observed (jobs only).
	Incumbents int `json:"incumbents,omitempty"`
	// ErrorSamples holds the first few error messages verbatim.
	ErrorSamples []string `json:"error_samples,omitempty"`
	// Telemetry folds the engine telemetry of the class's solves: nodes
	// explored, incumbents, and results per cache source.
	Telemetry TelemetryAgg `json:"telemetry"`
	// Latency summarises the class's request latencies in milliseconds. For
	// jobs it spans submit to terminal event.
	Latency LatencySummary `json:"latency_ms"`
}

// TenantStats aggregates one tenant's slice of a multi-tenant run, across
// all request classes.
type TenantStats struct {
	// Requests counts the tenant's completed requests (including failures).
	Requests int `json:"requests"`
	// Errors counts the tenant's failures, excluding quota sheds.
	Errors int `json:"errors"`
	// Shed counts the tenant's requests the server refused over quota.
	Shed int `json:"shed"`
	// Cancelled counts the tenant's cancelled batch results and jobs.
	Cancelled int `json:"cancelled"`
	// CacheServed counts the tenant's responses answered without a fresh solve.
	CacheServed int `json:"cache_served"`
	// Telemetry folds the engine telemetry of the tenant's solves.
	Telemetry TelemetryAgg `json:"telemetry"`
	// Latency summarises the tenant's request latencies in milliseconds.
	Latency LatencySummary `json:"latency_ms"`
}

// Report is the outcome of one load run (or, after MergeReports, of several
// runs pooled into one).
type Report struct {
	Seed        int64   `json:"seed"`
	Mix         Mix     `json:"mix"`
	RatePerSec  float64 `json:"rate_per_sec"`
	DurationSec float64 `json:"duration_sec"`
	// Replayed marks a run that re-issued a recording instead of generating
	// open-loop arrivals.
	Replayed bool `json:"replayed,omitempty"`
	// Shards is the number of driver runs MergeReports pooled into this
	// report (0 for a single run).
	Shards     int     `json:"shards,omitempty"`
	Requests   int     `json:"requests"`
	Shed       int     `json:"shed"`
	ServerShed int     `json:"server_shed"`
	Throughput float64 `json:"throughput_rps"`
	// WarmStarted sums the warm-started fresh solves across all classes — the
	// headline number of the incremental-solving layer.
	WarmStarted int                    `json:"warm_started"`
	Classes     map[string]*ClassStats `json:"classes"`
	// Tenants holds per-tenant accounting for multi-tenant runs (empty for
	// anonymous runs). Shed above counts arrivals the driver itself dropped
	// at its MaxInflight cap; ServerShed counts quota refusals by the server.
	Tenants map[string]*TenantStats `json:"tenants,omitempty"`
	// Validated counts responses the invariant oracle checked;
	// ViolationCount is the total number of failures and Violations lists
	// their messages (bounded — past the cap a truncation sentinel stands in
	// for the overflow; empty on a healthy run).
	Validated      int      `json:"validated"`
	ViolationCount int      `json:"violation_count"`
	Violations     []string `json:"violations"`
	// Properties counts validated schedules per structural property.
	Properties map[string]int `json:"properties"`
	// Cache is the run's cache accounting from the /metrics delta.
	Cache CacheAccounting `json:"cache"`
	// MetricsDelta is the raw /metrics movement over the run.
	MetricsDelta MetricsSnapshot `json:"metrics_delta"`
}

// Driver replays corpus traffic against a server. Create one with NewDriver
// and call Run once.
type Driver struct {
	cfg    Config
	oracle *Oracle

	mu              sync.Mutex
	latencies       map[string][]float64
	classes         map[string]*ClassStats
	tenantLatencies map[string][]float64
	tenants         map[string]*TenantStats
	shed            int
	serverShed      int
}

// NewDriver validates the configuration and applies defaults.
func NewDriver(cfg Config) (*Driver, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("harness: Config.BaseURL is required")
	}
	if cfg.Replay == nil && (cfg.Corpus == nil || cfg.Corpus.Size() == 0) {
		return nil, errors.New("harness: Config.Corpus is required and must be non-empty")
	}
	if cfg.Replay != nil && len(cfg.Replay.Entries) == 0 {
		return nil, errors.New("harness: Config.Replay has no entries")
	}
	if cfg.ReplaySpeed < 0 {
		return nil, errors.New("harness: Config.ReplaySpeed must be non-negative")
	}
	if cfg.ReplaySpeed == 0 {
		cfg.ReplaySpeed = 1
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = DefaultMix()
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 200
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.SolveTimeout <= 0 {
		cfg.SolveTimeout = 2 * time.Second
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 6
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	d := &Driver{
		cfg:             cfg,
		oracle:          NewOracle(),
		latencies:       make(map[string][]float64),
		tenantLatencies: make(map[string][]float64),
		tenants:         make(map[string]*TenantStats),
		classes: map[string]*ClassStats{
			ClassSolve:  {},
			ClassBatch:  {},
			ClassJobs:   {},
			ClassOnline: {},
		},
	}
	for _, tl := range cfg.Tenants {
		if tl.Name == "" {
			return nil, errors.New("harness: Config.Tenants entries need a name")
		}
		if _, dup := d.tenants[tl.Name]; dup {
			return nil, fmt.Errorf("harness: duplicate tenant %q", tl.Name)
		}
		d.tenants[tl.Name] = &TenantStats{}
	}
	if cfg.Replay != nil {
		// Replay re-issues whatever tenants the recording carries.
		for _, e := range cfg.Replay.Entries {
			if e.Tenant != "" && d.tenants[e.Tenant] == nil {
				d.tenants[e.Tenant] = &TenantStats{}
			}
		}
	}
	return d, nil
}

// Oracle exposes the driver's invariant oracle (for callers that want to
// inspect violations while a run is in flight).
func (d *Driver) Oracle() *Oracle { return d.oracle }

// Run generates arrivals — the configured open-loop mix, or a recorded
// schedule when Replay is set — drains the in-flight requests, scrapes the
// /metrics movement and returns the report. The context cancels the run
// early; requests already in flight still finish within their own timeouts.
func (d *Driver) Run(ctx context.Context) (*Report, error) {
	before, err := scrapeAll(d.cfg.Client, d.metricsURLs())
	if err != nil {
		return nil, err
	}

	var wg sync.WaitGroup // in-flight requests
	inflight := make(chan struct{}, d.cfg.MaxInflight)
	start := time.Now()
	if d.cfg.Replay != nil {
		d.replayArrivals(ctx, start, inflight, &wg)
	} else {
		d.liveArrivals(ctx, start, inflight, &wg)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := scrapeAll(d.cfg.Client, d.metricsURLs())
	if err != nil {
		return nil, err
	}
	return d.report(elapsed, before.Delta(after)), nil
}

// metricsURLs resolves where this run's metrics movement is scraped.
func (d *Driver) metricsURLs() []string {
	if len(d.cfg.MetricsURLs) > 0 {
		return d.cfg.MetricsURLs
	}
	return []string{d.cfg.BaseURL + "/metrics"}
}

// liveArrivals runs the open-loop generator: one arrival loop per tenant at
// its own rate for the configured duration. Arrival k is due k/rate after
// start; a loop that falls behind (a starved goroutine, a slow arrive) issues
// the overdue arrivals at once instead of dropping them, so the run offers
// exactly the rate it reports.
func (d *Driver) liveArrivals(ctx context.Context, start time.Time, inflight chan struct{}, wg *sync.WaitGroup) {
	items := d.cfg.Corpus.Items()
	rng := rand.New(rand.NewSource(d.cfg.Corpus.Seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	// Anonymous runs are a single unnamed tenant at the global rate; the
	// per-tenant loops below degenerate to a single arrival loop.
	loads := d.cfg.Tenants
	if len(loads) == 0 {
		loads = []TenantLoad{{Rate: d.cfg.Rate}}
	}

	var loops sync.WaitGroup // arrival loops
	for ti, tl := range loads {
		loops.Add(1)
		go func(ti int, tl TenantLoad) {
			defer loops.Done()
			// Each tenant draws classes from its own deterministic stream and
			// walks the corpus from its own offset, so tenants overlap on
			// instances (exercising the shared cache) without being identical.
			rng := rand.New(rand.NewSource(d.cfg.Corpus.Seed + int64(ti)*7919))
			rate := tl.Rate
			if rate <= 0 {
				rate = d.cfg.Rate
			}
			timer := time.NewTimer(0)
			defer timer.Stop()
			next := ti * 7
			// Online-class chain state: the current instance, how many
			// mutation steps it is from its base, and the chain's latest
			// answer, which the next arrival sends as its warm start.
			var (
				online     Item
				onlineHint *atomic.Pointer[core.Schedule]
			)
			onlineStep := onlineChainLen // start a fresh chain on first draw
			for k := 0; ; k++ {
				// Requests already in flight at the deadline still finish
				// within their own timeouts.
				due := time.Duration(float64(k) * float64(time.Second) / rate)
				if due >= d.cfg.Duration {
					return
				}
				if wait := due - time.Since(start); wait > 0 {
					timer.Reset(wait)
					select {
					case <-ctx.Done():
						return
					case <-timer.C:
					}
				}
				if ctx.Err() != nil {
					return
				}
				class := d.cfg.Mix.pick(rng)
				at := next
				next++
				var (
					req  []Item
					hint *atomic.Pointer[core.Schedule]
				)
				switch class {
				case ClassBatch:
					req = make([]Item, 0, d.cfg.BatchSize)
					for i := 0; i < d.cfg.BatchSize; i++ {
						req = append(req, items[(at+i)%len(items)])
					}
				case ClassOnline:
					// The chain's first arrival replays the base itself
					// (warming the cache); each later arrival is one
					// mutation of its predecessor, so consecutive
					// instances are fingerprint-distinct but shape-near.
					// A new chain gets a new hint holder, so a late answer
					// from the old chain never seeds it.
					if onlineStep >= onlineChainLen {
						online = items[at%len(items)]
						onlineHint = new(atomic.Pointer[core.Schedule])
						onlineStep = 0
					} else {
						online.Inst = gen.Mutate(rng, online.Inst, gen.Mutations[onlineStep%len(gen.Mutations)])
						onlineStep++
					}
					req = []Item{online}
					hint = onlineHint
				default:
					req = []Item{items[at%len(items)]}
				}
				d.arrive(ctx, start, inflight, wg, class, tl.Name, req, hint)
			}
		}(ti, tl)
	}
	loops.Wait()
}

// replayArrivals re-issues a recording: every entry at its recorded offset
// (compressed by ReplaySpeed), with its recorded class, tenant and instances.
func (d *Driver) replayArrivals(ctx context.Context, start time.Time, inflight chan struct{}, wg *sync.WaitGroup) {
	for i := range d.cfg.Replay.Entries {
		e := &d.cfg.Replay.Entries[i]
		due := time.Duration(float64(e.OffsetNS) / d.cfg.ReplaySpeed)
		if wait := due - time.Since(start); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		if ctx.Err() != nil {
			return
		}
		d.arrive(ctx, start, inflight, wg, e.Class, e.Tenant, e.items(), nil)
	}
}

// arrive admits one arrival: it records it, sheds it when the inflight cap is
// full (keeping the loop open), and otherwise issues the request on its own
// goroutine. hint, set only for live online arrivals, is the chain's holder
// of its latest answer (see doSolve); the recording does not carry it.
func (d *Driver) arrive(ctx context.Context, start time.Time, inflight chan struct{}, wg *sync.WaitGroup, class, tenant string, req []Item, hint *atomic.Pointer[core.Schedule]) {
	seq := -1
	if d.cfg.Recorder != nil {
		seq = d.cfg.Recorder.arrive(time.Since(start), class, tenant, req)
	}
	select {
	case inflight <- struct{}{}:
	default:
		d.mu.Lock()
		d.shed++
		d.mu.Unlock()
		if d.cfg.Recorder != nil {
			d.cfg.Recorder.finish(seq, OutcomeDriverShed)
		}
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { <-inflight }()
		rctx, cancel := context.WithTimeout(ctx, d.cfg.RequestTimeout)
		defer cancel()
		began := time.Now()
		var outcome string
		switch class {
		case ClassSolve, ClassOnline:
			outcome = d.doSolve(rctx, class, tenant, req[0], hint)
		case ClassBatch:
			outcome = d.doBatch(rctx, tenant, req)
		case ClassJobs:
			outcome = d.doJob(rctx, tenant, req[0])
		}
		d.record(class, tenant, time.Since(began))
		if d.cfg.Recorder != nil {
			d.cfg.Recorder.finish(seq, outcome)
		}
	}()
}

// record stores the class (and tenant) latency and bumps the request counts.
func (d *Driver) record(class, tenant string, elapsed time.Duration) {
	ms := float64(elapsed) / float64(time.Millisecond)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.latencies[class] = append(d.latencies[class], ms)
	d.classes[class].Requests++
	if ts := d.tenants[tenant]; ts != nil {
		d.tenantLatencies[tenant] = append(d.tenantLatencies[tenant], ms)
		ts.Requests++
	}
}

// maxErrorSamples bounds the per-class error strings kept verbatim.
const maxErrorSamples = 5

// countTelemetry folds one solve's telemetry into its class and tenant
// aggregates.
func (d *Driver) countTelemetry(class, tenant string, tel *engine.Telemetry, source string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.classes[class].Telemetry.add(tel, source)
	if ts := d.tenants[tenant]; ts != nil {
		ts.Telemetry.add(tel, source)
	}
}

// countError books a failure against the class and tenant. Quota sheds (429
// responses) are counted apart from errors: they are the admission policy
// working, not the server misbehaving.
func (d *Driver) countError(class, tenant string, err error) {
	if isShed(err) {
		d.countShed(class, tenant)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cs := d.classes[class]
	cs.Errors++
	if err != nil && len(cs.ErrorSamples) < maxErrorSamples {
		cs.ErrorSamples = append(cs.ErrorSamples, err.Error())
	}
	if ts := d.tenants[tenant]; ts != nil {
		ts.Errors++
	}
}

func (d *Driver) countShed(class, tenant string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.serverShed++
	d.classes[class].Shed++
	if ts := d.tenants[tenant]; ts != nil {
		ts.Shed++
	}
}

func (d *Driver) countCancelled(class, tenant string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.classes[class].Cancelled++
	if ts := d.tenants[tenant]; ts != nil {
		ts.Cancelled++
	}
}

// httpError is a non-2xx response, typed so callers can tell quota sheds
// (429) apart from genuine failures.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// isShed reports whether the error is a server-side quota refusal (429).
func isShed(err error) bool {
	var he *httpError
	return errors.As(err, &he) && he.status == http.StatusTooManyRequests
}

// post sends a JSON body (under the tenant's identity, when set) and decodes
// a JSON response into out. Non-2xx responses are returned as *httpError
// carrying the status and the server's message.
func (d *Driver) post(ctx context.Context, tenant, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.cfg.BaseURL+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(service.TenantHeader, tenant)
	}
	resp, err := d.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var apiErr service.ErrorResponse
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
			return &httpError{status: resp.StatusCode, msg: fmt.Sprintf("%s: %s", resp.Status, apiErr.Error)}
		}
		return &httpError{status: resp.StatusCode, msg: fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(data)))}
	}
	return json.Unmarshal(data, out)
}

// outcomeOf classifies a request-level error for the recording.
func outcomeOf(err error) string {
	if err == nil {
		return OutcomeOK
	}
	if isShed(err) {
		return OutcomeShed
	}
	return OutcomeError
}

// doSolve fires one synchronous solve, revalidates the returned schedule and
// returns the request outcome. It serves both the solve class and the online
// class (whose arrivals are mutation-chain instances): class only decides
// which report bucket the outcome lands in. A non-nil hint holds the online
// chain's latest answer: it is sent as the request's warm_start, and a
// validated answer replaces it.
func (d *Driver) doSolve(ctx context.Context, class, tenant string, item Item, hint *atomic.Pointer[core.Schedule]) string {
	var resp service.SolveResponse
	req := service.SolveRequest{
		Solver:          d.cfg.Solver,
		Instance:        item.Inst,
		Timeout:         d.cfg.SolveTimeout.String(),
		IncludeSchedule: true,
	}
	if hint != nil {
		req.WarmStart = hint.Load()
	}
	err := d.post(ctx, tenant, "/v1/solve", req, &resp)
	if err != nil {
		d.countError(class, tenant, err)
		return outcomeOf(err)
	}
	if resp.Source != "solve" {
		d.mu.Lock()
		d.classes[class].CacheServed++
		if ts := d.tenants[tenant]; ts != nil {
			ts.CacheServed++
		}
		d.mu.Unlock()
	}
	d.countTelemetry(class, tenant, resp.Telemetry, resp.Source)
	label := fmt.Sprintf("%s %s/%s", class, item.Family, item.Inst.Fingerprint().Short())
	if err := d.oracle.CheckSchedule(label, item.Inst, resp.Schedule, resp.Makespan, resp.Wasted); err != nil {
		d.countError(class, tenant, err)
		return OutcomeError
	}
	if hint != nil {
		hint.Store(resp.Schedule)
	}
	return OutcomeOK
}

// doBatch fires one batch solve over the given window and sanity-checks every
// per-instance result (batch responses carry no schedules, so the oracle can
// only hold makespans against the lower bounds). The returned outcome is
// request-level: per-instance failures are counted but a delivered batch is
// "ok".
func (d *Driver) doBatch(ctx context.Context, tenant string, batch []Item) string {
	req := service.BatchRequest{Solver: d.cfg.Solver, Timeout: d.cfg.SolveTimeout.String()}
	for _, it := range batch {
		req.Instances = append(req.Instances, it.Inst)
	}
	var resp service.BatchResponse
	if err := d.post(ctx, tenant, "/v1/batch-solve", req, &resp); err != nil {
		d.countError(ClassBatch, tenant, err)
		return outcomeOf(err)
	}
	for _, res := range resp.Results {
		switch {
		case res.Shed:
			d.countShed(ClassBatch, tenant)
		case res.Cancelled:
			d.countCancelled(ClassBatch, tenant)
		case res.Error != "":
			d.countError(ClassBatch, tenant, errors.New(res.Error))
		case res.Index < 0 || res.Index >= len(batch):
			d.countError(ClassBatch, tenant, fmt.Errorf("batch response index %d outside [0,%d)", res.Index, len(batch)))
		default:
			it := batch[res.Index]
			d.countTelemetry(ClassBatch, tenant, res.Telemetry, res.Source)
			label := fmt.Sprintf("batch %s/%s", it.Family, it.Inst.Fingerprint().Short())
			if err := d.oracle.CheckMakespan(label, it.Inst, res.Makespan); err != nil {
				d.countError(ClassBatch, tenant, err)
			}
		}
	}
	return OutcomeOK
}

// doJob submits an asynchronous job, follows its SSE stream to the terminal
// state, revalidates the final schedule and returns the request outcome.
func (d *Driver) doJob(ctx context.Context, tenant string, item Item) string {
	var snap jobs.Snapshot
	req := service.JobRequest{Solver: d.cfg.Solver, Instance: item.Inst, Timeout: d.cfg.JobTimeout.String()}
	if err := d.post(ctx, tenant, "/v1/jobs", req, &snap); err != nil {
		d.countError(ClassJobs, tenant, err)
		return outcomeOf(err)
	}
	incumbents, err := d.followEvents(ctx, snap.ID)
	d.mu.Lock()
	d.classes[ClassJobs].Incumbents += incumbents
	d.mu.Unlock()
	if err != nil {
		d.countError(ClassJobs, tenant, err)
		return OutcomeError
	}
	final, err := d.getJob(ctx, snap.ID)
	if err != nil {
		d.countError(ClassJobs, tenant, err)
		return OutcomeError
	}
	switch final.State {
	case jobs.StateDone:
		if final.Result != nil {
			d.countTelemetry(ClassJobs, tenant, final.Result.Telemetry, final.Result.Source)
		}
		label := fmt.Sprintf("job %s %s/%s", final.ID, item.Family, item.Inst.Fingerprint().Short())
		if final.Result == nil {
			err := d.oracle.CheckSchedule(label, item.Inst, nil, -1, -1)
			d.countError(ClassJobs, tenant, err)
			return OutcomeError
		}
		if err := d.oracle.CheckSchedule(label, item.Inst, final.Result.Schedule, final.Result.Makespan, final.Result.Wasted); err != nil {
			d.countError(ClassJobs, tenant, err)
			return OutcomeError
		}
		return OutcomeOK
	case jobs.StateCancelled:
		d.countCancelled(ClassJobs, tenant)
		return OutcomeCancelled
	default:
		d.countError(ClassJobs, tenant, fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error))
		return OutcomeError
	}
}

// followEvents reads the job's SSE stream until the server closes it at a
// terminal state (or the context expires) and returns the number of
// incumbent events seen.
func (d *Driver) followEvents(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.cfg.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("events: %s", resp.Status)
	}
	incumbents := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "event: incumbent" {
			incumbents++
		}
	}
	// EOF means the stream reached a terminal state; any other error is the
	// context expiring mid-stream.
	if err := sc.Err(); err != nil && !errors.Is(err, io.EOF) {
		return incumbents, err
	}
	return incumbents, nil
}

func (d *Driver) getJob(ctx context.Context, id string) (*jobs.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.cfg.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job %s: %s", id, resp.Status)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// offeredRate is the arrival rate the run actually offered, which the report
// states as RatePerSec. cfg.Rate alone misstates it for two run shapes: a
// replay's schedule comes from the recording (cfg.Rate is ignored entirely),
// and a multi-tenant run offers the SUM of the tenant rates (a tenant with no
// rate of its own falls back to the global rate).
func (d *Driver) offeredRate(elapsed time.Duration) float64 {
	if d.cfg.Replay != nil {
		var maxOff int64
		for i := range d.cfg.Replay.Entries {
			if off := d.cfg.Replay.Entries[i].OffsetNS; off > maxOff {
				maxOff = off
			}
		}
		span := time.Duration(float64(maxOff) / d.cfg.ReplaySpeed)
		if span <= 0 {
			span = elapsed // single-instant recording: fall back to wall time
		}
		if span <= 0 {
			return 0
		}
		return float64(len(d.cfg.Replay.Entries)) / span.Seconds()
	}
	if len(d.cfg.Tenants) > 0 {
		var sum float64
		for _, tl := range d.cfg.Tenants {
			if tl.Rate > 0 {
				sum += tl.Rate
			} else {
				sum += d.cfg.Rate
			}
		}
		return sum
	}
	return d.cfg.Rate
}

// report assembles the final Report.
func (d *Driver) report(elapsed time.Duration, delta MetricsSnapshot) *Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	seed := int64(0)
	if d.cfg.Corpus != nil {
		seed = d.cfg.Corpus.Seed
	} else if d.cfg.Replay != nil {
		seed = d.cfg.Replay.Seed
	}
	rep := &Report{
		Seed:           seed,
		Mix:            d.cfg.Mix,
		Replayed:       d.cfg.Replay != nil,
		RatePerSec:     d.offeredRate(elapsed),
		DurationSec:    elapsed.Seconds(),
		Shed:           d.shed,
		ServerShed:     d.serverShed,
		Classes:        make(map[string]*ClassStats, len(d.classes)),
		Validated:      d.oracle.Validated(),
		ViolationCount: d.oracle.ViolationCount(),
		Violations:     append([]string{}, d.oracle.Violations()...),
		Properties:     d.oracle.Properties(),
		Cache:          delta.Cache(),
		MetricsDelta:   delta,
	}
	for class, cs := range d.classes {
		c := *cs
		c.Latency = summarizeLatency(d.latencies[class])
		rep.Classes[class] = &c
		rep.Requests += c.Requests
		rep.WarmStarted += c.Telemetry.WarmStarts
	}
	if len(d.tenants) > 0 {
		rep.Tenants = make(map[string]*TenantStats, len(d.tenants))
		for name, ts := range d.tenants {
			t := *ts
			t.Latency = summarizeLatency(d.tenantLatencies[name])
			rep.Tenants[name] = &t
		}
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Requests) / elapsed.Seconds()
	}
	return rep
}
