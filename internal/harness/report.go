package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"crsharing/internal/stats"
)

// The per-class and per-tenant latency histograms observe milliseconds
// against one canonical list of upper bounds, 10^(latHistLo + k·w) ms for
// k = 0..latHistBuckets with w = (latHistHi − latHistLo)/latHistBuckets,
// so the histograms of any two runs — different processes, different
// machines — always share bounds and merge exactly. The bounds span 10µs to
// 100s at 0.05 decades per bucket (≈12% relative width), which is finer
// than any latency SLO this harness gates.
const (
	latHistLo      = -2.0 // 10^-2 ms = 10µs
	latHistHi      = 5.0  // 10^5 ms = 100s
	latHistBuckets = 140
)

// latencyBounds are the canonical latency histogram bounds, in ms.
var latencyBounds = func() []float64 {
	b := make([]float64, latHistBuckets+1)
	for k := range b {
		b[k] = math.Pow(10, latHistLo+float64(k)*(latHistHi-latHistLo)/latHistBuckets)
	}
	return b
}()

// LatencySummary is a latency distribution in milliseconds. For a single run
// the quantiles are exact (read off the raw samples); for a merged report
// they are re-estimated from the merged histogram, within one bucket
// (≈12% relative).
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	MinMS  float64 `json:"min_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	// Hist is the sample histogram over the canonical latency bounds — the
	// mergeable representation that lets -merge pool the latency
	// distributions of several reports exactly.
	Hist *stats.Histogram `json:"hist,omitempty"`
	// Histogram is the human-readable rendering of Hist (empty when there
	// are no samples); it renders under the summary line in text reports.
	Histogram string `json:"histogram,omitempty"`
}

// summarizeLatency folds millisecond samples into a LatencySummary with exact
// quantiles and the canonical mergeable histogram.
func summarizeLatency(ms []float64) LatencySummary {
	s := stats.Summarize(ms)
	out := LatencySummary{
		Count:  s.Count,
		MeanMS: s.Mean,
		MinMS:  s.Min,
		P50MS:  s.P50,
		P90MS:  s.P90,
		P99MS:  s.P99,
		MaxMS:  s.Max,
	}
	if s.Count > 0 {
		h := stats.NewHistogram(latencyBounds)
		for _, x := range ms {
			h.Add(x)
		}
		out.Hist = h
		out.Histogram = renderLatencyHistogram(h)
	}
	return out
}

// mergeLatency pools two summaries: counts, mean, min and max merge exactly;
// the quantiles are re-estimated from the merged histogram.
func mergeLatency(a, b LatencySummary) (LatencySummary, error) {
	if a.Count == 0 {
		return b, nil
	}
	if b.Count == 0 {
		return a, nil
	}
	na, nb := float64(a.Count), float64(b.Count)
	out := LatencySummary{
		Count:  a.Count + b.Count,
		MeanMS: (na*a.MeanMS + nb*b.MeanMS) / (na + nb),
		MinMS:  math.Min(a.MinMS, b.MinMS),
		MaxMS:  math.Max(a.MaxMS, b.MaxMS),
	}
	if a.Hist == nil || b.Hist == nil {
		return LatencySummary{}, errors.New("harness: latency summary carries no histogram; reports predating mergeable histograms cannot be merged")
	}
	// Both sides merge into a fresh canonical histogram, so a report whose
	// histogram has other bounds (or none, as before the bounds were
	// recorded) is refused even when both reports share them.
	h := stats.NewHistogram(latencyBounds)
	for _, side := range []*stats.Histogram{a.Hist, b.Hist} {
		if err := h.Merge(side); err != nil {
			return LatencySummary{}, fmt.Errorf("harness: merging latency histograms: %w", err)
		}
	}
	out.Hist = h
	// Quantile estimates interpolate inside a bucket, so they can poke past
	// the true extremes; the exact pooled min/max are known, so clamp.
	clamp := func(q float64) float64 {
		return math.Min(math.Max(h.Quantile(q), out.MinMS), out.MaxMS)
	}
	out.P50MS = clamp(0.50)
	out.P90MS = clamp(0.90)
	out.P99MS = clamp(0.99)
	out.Histogram = renderLatencyHistogram(h)
	return out, nil
}

// renderLatencyHistogram renders the histogram as an ASCII bar chart with
// millisecond labels, coalescing the occupied buckets into at most 16
// display rows. Each row covers (lo, hi]; the first bucket has no lower
// edge (lo 0) and the overflow slot no upper edge (hi +Inf).
func renderLatencyHistogram(h *stats.Histogram) string {
	first, last := -1, -1
	for i, c := range h.Counts {
		if c > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return ""
	}
	edge := func(i int) float64 { // the upper edge of bucket i
		if i < 0 {
			return 0
		}
		if i >= len(h.Bounds) {
			return math.Inf(1)
		}
		return h.Bounds[i]
	}
	const maxRows = 16
	group := (last - first + maxRows) / maxRows // ceil(span/maxRows)
	type row struct {
		lo, hi float64
		count  uint64
	}
	var rows []row
	maxCount := uint64(1)
	for i := first; i <= last; i += group {
		end := min(i+group, last+1)
		r := row{lo: edge(i - 1), hi: edge(end - 1)}
		for _, c := range h.Counts[i:end] {
			r.count += c
		}
		rows = append(rows, r)
		maxCount = max(maxCount, r.count)
	}
	var b strings.Builder
	for _, r := range rows {
		bar := strings.Repeat("#", int(r.count*40/maxCount))
		fmt.Fprintf(&b, "(%9.3f, %9.3f] ms %6d %s\n", r.lo, r.hi, r.count, bar)
	}
	return b.String()
}

// mergeTelemetry pools two per-class telemetry aggregates.
func mergeTelemetry(a, b TelemetryAgg) TelemetryAgg {
	out := TelemetryAgg{
		Nodes:      a.Nodes + b.Nodes,
		Incumbents: a.Incumbents + b.Incumbents,
		WarmStarts: a.WarmStarts + b.WarmStarts,
	}
	if len(a.Sources)+len(b.Sources) > 0 {
		out.Sources = make(map[string]int, len(a.Sources)+len(b.Sources))
		for s, n := range a.Sources {
			out.Sources[s] += n
		}
		for s, n := range b.Sources {
			out.Sources[s] += n
		}
	}
	return out
}

// mergeClassStats pools two per-class aggregates of the same class.
func mergeClassStats(a, b *ClassStats) (*ClassStats, error) {
	if a == nil {
		return b, nil
	}
	if b == nil {
		return a, nil
	}
	out := &ClassStats{
		Requests:    a.Requests + b.Requests,
		Errors:      a.Errors + b.Errors,
		Shed:        a.Shed + b.Shed,
		Cancelled:   a.Cancelled + b.Cancelled,
		CacheServed: a.CacheServed + b.CacheServed,
		Incumbents:  a.Incumbents + b.Incumbents,
		Telemetry:   mergeTelemetry(a.Telemetry, b.Telemetry),
	}
	out.ErrorSamples = append(out.ErrorSamples, a.ErrorSamples...)
	for _, e := range b.ErrorSamples {
		if len(out.ErrorSamples) >= maxErrorSamples {
			break
		}
		out.ErrorSamples = append(out.ErrorSamples, e)
	}
	var err error
	if out.Latency, err = mergeLatency(a.Latency, b.Latency); err != nil {
		return nil, err
	}
	return out, nil
}

// mergeTenantStats pools two per-tenant aggregates of the same tenant.
func mergeTenantStats(a, b *TenantStats) (*TenantStats, error) {
	if a == nil {
		return b, nil
	}
	if b == nil {
		return a, nil
	}
	out := &TenantStats{
		Requests:    a.Requests + b.Requests,
		Errors:      a.Errors + b.Errors,
		Shed:        a.Shed + b.Shed,
		Cancelled:   a.Cancelled + b.Cancelled,
		CacheServed: a.CacheServed + b.CacheServed,
		Telemetry:   mergeTelemetry(a.Telemetry, b.Telemetry),
	}
	var err error
	if out.Latency, err = mergeLatency(a.Latency, b.Latency); err != nil {
		return nil, err
	}
	return out, nil
}

// MergeReports pools the reports of several crload processes into one fleet
// report: counts, oracle verdicts, telemetry and cache accounting add
// exactly; latency quantiles are re-estimated from the merged histograms
// (the canonical latency bounds make every pair of reports mergeable — a
// bounds mismatch is a typed error, never a silent misbin). Rates add (the
// drivers offer their loads side by side), durations take the maximum (they
// run concurrently), and throughput is recomputed from the pooled totals.
// The per-report /metrics deltas add, which is correct when each driver
// scraped its own server or disjoint time windows.
func MergeReports(reports ...*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, errors.New("harness: no reports to merge")
	}
	out := &Report{
		Seed:       reports[0].Seed,
		Mix:        reports[0].Mix,
		Replayed:   reports[0].Replayed,
		Classes:    map[string]*ClassStats{},
		Properties: map[string]int{},
	}
	for _, r := range reports {
		shards := r.Shards
		if shards <= 0 {
			shards = 1
		}
		out.Shards += shards
		out.RatePerSec += r.RatePerSec
		if r.DurationSec > out.DurationSec {
			out.DurationSec = r.DurationSec
		}
		out.Requests += r.Requests
		out.Shed += r.Shed
		out.ServerShed += r.ServerShed
		out.WarmStarted += r.WarmStarted
		out.Validated += r.Validated
		out.ViolationCount += r.ViolationCount
		for _, v := range r.Violations {
			if len(out.Violations) < maxRecordedViolations {
				out.Violations = append(out.Violations, v)
			}
		}
		for p, n := range r.Properties {
			out.Properties[p] += n
		}
		for class, cs := range r.Classes {
			merged, err := mergeClassStats(out.Classes[class], cs)
			if err != nil {
				return nil, fmt.Errorf("class %s: %w", class, err)
			}
			out.Classes[class] = merged
		}
		for tenant, ts := range r.Tenants {
			if out.Tenants == nil {
				out.Tenants = map[string]*TenantStats{}
			}
			merged, err := mergeTenantStats(out.Tenants[tenant], ts)
			if err != nil {
				return nil, fmt.Errorf("tenant %s: %w", tenant, err)
			}
			out.Tenants[tenant] = merged
		}
		out.Cache.FreshSolves += r.Cache.FreshSolves
		out.Cache.CacheServed += r.Cache.CacheServed
		for k, v := range r.MetricsDelta {
			if out.MetricsDelta == nil {
				out.MetricsDelta = MetricsSnapshot{}
			}
			out.MetricsDelta[k] += v
		}
	}
	if total := out.Cache.FreshSolves + out.Cache.CacheServed; total > 0 {
		out.Cache.HitRatio = out.Cache.CacheServed / total
	}
	if out.DurationSec > 0 {
		out.Throughput = float64(out.Requests) / out.DurationSec
	}
	if out.Violations == nil {
		out.Violations = []string{}
	}
	return out, nil
}

// ParseReport decodes a report previously written by Report.JSON, for
// cross-process merging (crload -merge).
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("harness: parsing report: %w", err)
	}
	if r.Classes == nil {
		return nil, errors.New("harness: report carries no per-class stats (not a crload report?)")
	}
	return &r, nil
}

// JSON serialises the report, indented, for the BENCH_load.json artifact.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Text renders the human-readable run summary: one block per class with the
// latency summary and histogram, then the oracle verdict and the cache
// accounting.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crload: seed=%d rate=%g/s duration=%.2fs mix=solve:%d,batch:%d,jobs:%d",
		r.Seed, r.RatePerSec, r.DurationSec, r.Mix.Solve, r.Mix.Batch, r.Mix.Jobs)
	if r.Mix.Online > 0 {
		fmt.Fprintf(&b, ",online:%d", r.Mix.Online)
	}
	if r.Replayed {
		b.WriteString(" (replay)")
	}
	if r.Shards > 1 {
		fmt.Fprintf(&b, " runs=%d", r.Shards)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "requests=%d shed=%d server-shed=%d warm_started=%d throughput=%.1f req/s\n",
		r.Requests, r.Shed, r.ServerShed, r.WarmStarted, r.Throughput)

	classes := make([]string, 0, len(r.Classes))
	for c := range r.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		cs := r.Classes[class]
		fmt.Fprintf(&b, "\n[%s] requests=%d errors=%d shed=%d cancelled=%d", class, cs.Requests, cs.Errors, cs.Shed, cs.Cancelled)
		if class == ClassSolve || class == ClassOnline {
			fmt.Fprintf(&b, " cache-served=%d", cs.CacheServed)
		}
		if class == ClassJobs {
			fmt.Fprintf(&b, " incumbents=%d", cs.Incumbents)
		}
		b.WriteByte('\n')
		if tel := cs.Telemetry; len(tel.Sources) > 0 || tel.Nodes > 0 {
			srcs := make([]string, 0, len(tel.Sources))
			for s := range tel.Sources {
				srcs = append(srcs, s)
			}
			sort.Strings(srcs)
			fmt.Fprintf(&b, "  telemetry: nodes=%d incumbents=%d warm=%d", tel.Nodes, tel.Incumbents, tel.WarmStarts)
			for _, s := range srcs {
				fmt.Fprintf(&b, " %s=%d", s, tel.Sources[s])
			}
			b.WriteByte('\n')
		}
		for _, e := range cs.ErrorSamples {
			fmt.Fprintf(&b, "  error: %s\n", e)
		}
		if cs.Latency.Count > 0 {
			fmt.Fprintf(&b, "  latency ms: p50=%.3f p90=%.3f p99=%.3f mean=%.3f min=%.3f max=%.3f\n",
				cs.Latency.P50MS, cs.Latency.P90MS, cs.Latency.P99MS,
				cs.Latency.MeanMS, cs.Latency.MinMS, cs.Latency.MaxMS)
			for _, line := range strings.Split(strings.TrimRight(cs.Latency.Histogram, "\n"), "\n") {
				fmt.Fprintf(&b, "  %s\n", line)
			}
		}
	}

	if len(r.Tenants) > 0 {
		names := make([]string, 0, len(r.Tenants))
		for n := range r.Tenants {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteByte('\n')
		for _, n := range names {
			ts := r.Tenants[n]
			fmt.Fprintf(&b, "tenant %-12s requests=%d errors=%d shed=%d cancelled=%d cache-served=%d",
				n, ts.Requests, ts.Errors, ts.Shed, ts.Cancelled, ts.CacheServed)
			if ts.Latency.Count > 0 {
				fmt.Fprintf(&b, " p50=%.3fms p99=%.3fms", ts.Latency.P50MS, ts.Latency.P99MS)
			}
			b.WriteByte('\n')
		}
	}

	fmt.Fprintf(&b, "\noracle: validated=%d violations=%d\n", r.Validated, r.ViolationCount)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION %s\n", v)
	}
	props := make([]string, 0, len(r.Properties))
	for p := range r.Properties {
		props = append(props, p)
	}
	sort.Strings(props)
	for _, p := range props {
		fmt.Fprintf(&b, "  property %-12s %d\n", p, r.Properties[p])
	}
	fmt.Fprintf(&b, "cache: fresh-solves=%.0f served=%.0f hit-ratio=%.3f\n",
		r.Cache.FreshSolves, r.Cache.CacheServed, r.Cache.HitRatio)
	return b.String()
}
