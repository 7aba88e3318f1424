// Command servebench is the end-to-end serving benchmark of this repository.
// It builds the served stack in-process with crserved's (and, for the fleet
// workload, crrouter's) defaults, drives it over loopback HTTP from two
// closed-loop clients, checks every answer, and prints each metric by name
// with its unit. The last line of its output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash servebench/run.sh --workload repeat-solve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload twice on fresh stacks, untraced and then traced, reports the
// per-layer metrics and the tracing overhead, and checks that the traced run
// gave the same answers. See README.md in this directory for the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"crsharing/internal/solver"
)

// numClients is the number of closed-loop clients, one per core of the
// two-core machine the benchmark was calibrated on.
const numClients = 2

// A run sets up at least minSetups times and, while the set-ups together
// took less than minSetupSeconds, keeps setting up to maxSetups, so that
// the median of sub-millisecond set-ups rests on enough samples. setup_s is
// their median; the last set-up is the one measured.
const (
	minSetups       = 3
	minSetupSeconds = 1.0
	maxSetups       = 51
)

type config struct {
	workload *workload
	seed     int64
	duration time.Duration
	trace    bool
	spanFile string
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced comparison and reports per-layer metrics")
	spanFile := flag.String("spans", ".bench_build/servebench-spans.tsv", "file the traced run's spans are written to")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	cfg := config{
		workload: w,
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		spanFile: *spanFile,
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints metrics by name with their units and sample counts, and
// collects them for the JSON line.
type report struct {
	out     io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit string, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if samples >= 0 {
		fmt.Fprintf(r.out, "%-52s %14.4f %-6s n=%d\n", name, v, unit, samples)
	} else {
		fmt.Fprintf(r.out, "%-52s %14.4f %s\n", name, v, unit)
	}
}

// env is one set-up: the stack, its clients and the warmed pool.
type env struct {
	st      *stack
	clients []*client
	warm    *phaseStats
}

func (e *env) close() {
	for _, c := range e.clients {
		c.close()
	}
	e.st.close()
}

// setup builds the stack, generates the inputs and warms the pool; its
// duration is the benchmark's set-up time.
func setup(w *workload, seed int64, tr *tracer) (*env, time.Duration, error) {
	start := time.Now()
	var pool *instancePool
	if w.pool {
		var err error
		if pool, err = buildPool(seed); err != nil {
			return nil, 0, err
		}
	}
	st, err := newStack(w, tr)
	if err != nil {
		return nil, 0, err
	}
	e := &env{st: st}
	for i := 0; i < numClients; i++ {
		e.clients = append(e.clients, newClient(i, w, st.url, seed, pool, tr))
	}
	e.warm = newPhaseStats()
	if pool != nil {
		e.warm = parallel(e.clients, func(c *client) *phaseStats {
			return c.runAll(poolWarmup(pool, c.id, numClients))
		})
	}
	return e, time.Since(start), nil
}

// parallel runs f on every client concurrently and merges the stats in
// client order.
func parallel(clients []*client, f func(*client) *phaseStats) *phaseStats {
	parts := make([]*phaseStats, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = f(c)
		}()
	}
	wg.Wait()
	return merge(parts)
}

// merge sums per-client stats. Per-client answer lists stay separate in
// perClient for the traced comparison.
func merge(parts []*phaseStats) *phaseStats {
	m := newPhaseStats()
	for _, p := range parts {
		m.sent += p.sent
		m.okRequests += p.okRequests
		m.failedRequests += p.failedRequests
		m.attempted += p.attempted
		m.answered += p.answered
		m.failed += p.failed
		for i := range p.latencies {
			m.latencies[i] = append(m.latencies[i], p.latencies[i]...)
		}
		m.ratioSum += p.ratioSum
		for k, v := range p.sources {
			m.sources[k] += v
		}
		for _, e := range p.errs {
			if len(m.errs) < maxErrSamples {
				m.errs = append(m.errs, e)
			}
		}
		m.freshQueueMS = append(m.freshQueueMS, p.freshQueueMS...)
		m.freshNodes += p.freshNodes
		m.freshAllocs += p.freshAllocs
		m.fresh += p.fresh
		for k, v := range p.winners {
			m.winners[k] += v
		}
		m.cold = append(m.cold, p.cold...)
		for k, v := range p.queueMS {
			m.queueMS[k] = v
		}
		m.fingerprintUS = append(m.fingerprintUS, p.fingerprintUS...)
		m.perClient = append(m.perClient, p.answers)
	}
	return m
}

// numWindows splits a measured phase into equal windows. Throughput, CPU per
// op and the latency percentiles are taken per window and reported as their
// median over the windows, so a few seconds in which the shared host stalls
// the process do not move a run's figures.
const numWindows = 10

// phase is one measured phase with the process counters around it.
type phase struct {
	stats          *phaseStats
	settled        *phaseStats // the untimed requests before the phase
	allocBytes     float64
	gcCPU          float64 // seconds
	counters       counters
	coldChecked    int
	coldFailures   []string
	opsPerS        float64 // median over windows
	cpuMSPerOp     float64 // median over windows
	windowOps      []float64
	latencyP50     float64 // median over windows
	latencyP90     float64 // median over windows
	latencySamples int
	heapLiveBytes  float64
	warmFailed     int64 // failures of the set-up warm-up and the settling requests
}

// mark is the clients' progress and the process CPU time at a window edge.
type mark struct {
	at       time.Time
	answered int64
	cpu      time.Duration
}

func takeMark(clients []*client) mark {
	m := mark{at: time.Now(), cpu: cpuTime()}
	for _, c := range clients {
		m.answered += c.answered.Load()
	}
	return m
}

// measure collects garbage, lets the clients settle, runs them closed-loop
// for d and takes the counters around the phase. It ends with a forced GC
// and reads the live heap. With a tracer, the spans recorded before the
// phase are dropped.
func measure(e *env, w *workload, d time.Duration, tr *tracer) *phase {
	runtime.GC()
	settled := parallel(e.clients, func(c *client) *phaseStats {
		p := newPhaseStats()
		for i := 0; i < w.settle; i++ {
			c.do(c.src.next(), p)
		}
		return p
	})
	if tr != nil {
		tr.take()
	}
	c0, rt0 := e.st.counters(), readRuntime()
	win := d / numWindows
	marks := make([]mark, numWindows+1)
	marks[0] = takeMark(e.clients)
	start := marks[0].at
	for _, c := range e.clients {
		c.start, c.window = start, win
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < numWindows; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * win)))
			marks[i] = takeMark(e.clients)
		}
	}()
	stats := parallel(e.clients, func(c *client) *phaseStats { return c.run(start.Add(d)) })
	wg.Wait()
	marks[numWindows] = takeMark(e.clients)
	p := &phase{stats: stats, settled: settled}
	rt1 := readRuntime()
	p.counters = e.st.counters().sub(c0)
	p.allocBytes = rt1.allocBytes - rt0.allocBytes
	p.gcCPU = rt1.gcCPU - rt0.gcCPU

	var ops, cpu, p50, p90 []float64
	for i, lat := range stats.latencies {
		a, b := marks[i], marks[i+1]
		n := float64(b.answered - a.answered)
		ops = append(ops, n/b.at.Sub(a.at).Seconds())
		if n > 0 {
			cpu = append(cpu, float64(b.cpu-a.cpu)/1e6/n)
		}
		if len(lat) > 0 {
			slices.Sort(lat)
			p50 = append(p50, quantile(lat, 0.5))
			p90 = append(p90, quantile(lat, 0.9))
		}
		p.latencySamples += len(lat)
	}
	p.windowOps = slices.Clone(ops)
	p.opsPerS, p.cpuMSPerOp = median(ops), median(cpu)
	p.latencyP50, p.latencyP90 = median(p50), median(p90)
	stats.latencies = [numWindows][]float64{}
	// The second collection also drops what sync.Pools kept from the first.
	runtime.GC()
	runtime.GC()
	p.heapLiveBytes = readRuntime().heapLive
	return p
}

// coldCheck re-solves the sampled answers on a fresh, uncached solver,
// outside any timing.
func coldCheck(w *workload, p *phase) {
	reg := solver.Default()
	name := "greedy-balance"
	if w.cold == coldEqualExact {
		name = "branch-and-bound"
	}
	for _, a := range p.stats.cold {
		p.coldChecked++
		ev, err := coldSolve(reg, name, a)
		switch {
		case err != nil:
			p.coldFailures = append(p.coldFailures, fmt.Sprintf("cold %s: %v", name, err))
		case w.cold == coldEqualExact && ev.Makespan != a.makespan:
			p.coldFailures = append(p.coldFailures, fmt.Sprintf("served makespan %d, cold %s %d", a.makespan, name, ev.Makespan))
		case w.cold == coldNotWorseThanGreedy && a.makespan > ev.Makespan:
			p.coldFailures = append(p.coldFailures, fmt.Sprintf("served makespan %d, worse than cold %s %d", a.makespan, name, ev.Makespan))
		}
	}
}

func coldSolve(reg *solver.Registry, name string, a answer) (*solver.Evaluation, error) {
	s, err := reg.New(name)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return solver.Evaluate(ctx, s, a.inst)
}

func run(cfg config, out io.Writer) (*result, error) {
	w := cfg.workload
	fmt.Fprintf(out, "servebench workload=%s seed=%d clients=%d seconds=%g trace=%v\n%s\n",
		w.name, cfg.seed, numClients, cfg.duration.Seconds(), cfg.trace, w.why)
	fmt.Fprintf(out, "env nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	rep := &report{out: out, metrics: map[string]metric{}}
	if cfg.trace {
		return runTraced(cfg, rep)
	}

	var e *env
	var setupS []float64
	var warmFailed int64
	for total := 0.0; len(setupS) < maxSetups && (len(setupS) < minSetups || total < minSetupSeconds); {
		if e != nil {
			e.close()
		}
		var d time.Duration
		var err error
		if e, d, err = setup(w, cfg.seed, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		total += d.Seconds()
		warmFailed += e.warm.failed
	}
	printPhase(out, fmt.Sprintf("warm-up (last of %d set-ups)", len(setupS)), e.warm)
	p := measure(e, w, cfg.duration, nil)
	e.close()
	coldCheck(w, p)
	printPhase(out, "settle", p.settled)
	printPhase(out, "measured", p.stats)
	printCold(out, p)

	failed := p.settled.failed + p.stats.failed + int64(len(p.coldFailures))
	s := p.stats
	ops := float64(s.answered)
	fmt.Fprintf(out, "ops_per_s per window: %.1f\n", p.windowOps)
	rep.add("ops_per_s", p.opsPerS, "1/s", int(s.answered))
	rep.add("latency_p50_ms", p.latencyP50, "ms", p.latencySamples)
	rep.add("latency_p90_ms", p.latencyP90, "ms", p.latencySamples)
	errorRate := float64(failed) / float64(s.attempted)
	fmt.Fprintf(out, "%-52s %14.4f %-6s n=%d\n", "error_rate", errorRate, "ratio", s.attempted)
	rep.add("success_ratio", 1-errorRate, "ratio", int(s.attempted))
	rep.add("makespan_ratio", s.ratioSum/ops, "ratio", int(s.answered))
	rep.add("cpu_ms_per_op", p.cpuMSPerOp, "ms", int(s.answered))
	rep.add("alloc_kb_per_op", p.allocBytes/1024/ops, "KiB", int(s.answered))
	rep.add("heap_live_mb", p.heapLiveBytes/(1<<20), "MiB", -1)
	fmt.Fprintf(out, "setup runs (s): %v\n", setupS)
	rep.add("setup_s", median(setupS), "s", len(setupS))
	failed += warmFailed
	return &result{Correct: failed == 0, Attempted: s.attempted, Failed: failed, Metrics: rep.metrics}, nil
}

func printPhase(out io.Writer, name string, s *phaseStats) {
	fmt.Fprintf(out, "%s: requests sent=%d succeeded=%d failed=%d; instances attempted=%d answered=%d failed=%d; sources=%v\n",
		name, s.sent, s.okRequests, s.failedRequests, s.attempted, s.answered, s.failed, sortedCounts(s.sources))
	for _, e := range s.errs {
		fmt.Fprintf(out, "  %s failure: %s\n", name, e)
	}
}

func printCold(out io.Writer, p *phase) {
	fmt.Fprintf(out, "cold checks: %d sampled answers re-solved, %d failed\n", p.coldChecked, len(p.coldFailures))
	for i, f := range p.coldFailures {
		if i == maxErrSamples {
			break
		}
		fmt.Fprintf(out, "  cold failure: %s\n", f)
	}
}

func sortedCounts(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", k, m[k])
	}
	return b.String()
}

// quantile returns the q-quantile of sorted samples by nearest rank; 0 for
// no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median sorts xs in place and returns its median; 0 for no samples.
func median(xs []float64) float64 {
	slices.Sort(xs)
	if n := len(xs); n%2 == 0 && n > 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return quantile(xs, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type runtimeSample struct {
	allocBytes, gcCPU, heapLive float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), heapLive: val(s[2].Value)}
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
