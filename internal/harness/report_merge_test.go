package harness

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"crsharing/internal/stats"
)

// TestMergeLatencyMatchesPooled is the report-level half of the merge
// property: splitting one sample into shards, summarising each and merging
// must reproduce the pooled summary — count, mean, min, max exact, quantiles
// within one histogram bucket (≈12% relative).
func TestMergeLatencyMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var all []float64
	for i := 0; i < 4000; i++ {
		// Log-normal-ish latencies spanning 0.05ms to ~5s.
		all = append(all, math.Pow(10, rng.NormFloat64()*0.8))
	}
	const shards = 4
	merged := LatencySummary{}
	var err error
	for s := 0; s < shards; s++ {
		var part []float64
		for i := s; i < len(all); i += shards {
			part = append(part, all[i])
		}
		if merged, err = mergeLatency(merged, summarizeLatency(part)); err != nil {
			t.Fatal(err)
		}
	}
	pooled := summarizeLatency(all)
	if merged.Count != pooled.Count {
		t.Fatalf("merged count %d, want %d", merged.Count, pooled.Count)
	}
	if math.Abs(merged.MeanMS-pooled.MeanMS) > 1e-9*math.Abs(pooled.MeanMS) {
		t.Errorf("merged mean %v, want %v", merged.MeanMS, pooled.MeanMS)
	}
	if merged.MinMS != pooled.MinMS || merged.MaxMS != pooled.MaxMS {
		t.Errorf("merged min/max %v/%v, want %v/%v", merged.MinMS, merged.MaxMS, pooled.MinMS, pooled.MaxMS)
	}
	// Quantiles re-estimated from the merged histogram: within one bucket of
	// the exact sample quantile, i.e. a factor of 10^(bucket width) in ms.
	tol := math.Pow(10, (latHistHi-latHistLo)/latHistBuckets)
	for _, q := range []struct {
		name           string
		merged, pooled float64
	}{
		{"p50", merged.P50MS, pooled.P50MS},
		{"p90", merged.P90MS, pooled.P90MS},
		{"p99", merged.P99MS, pooled.P99MS},
	} {
		ratio := q.merged / q.pooled
		if ratio < 1/tol || ratio > tol {
			t.Errorf("%s: merged %v vs pooled %v (ratio %v beyond bucket factor %v)", q.name, q.merged, q.pooled, ratio, tol)
		}
	}
	if merged.Hist.Total() != pooled.Hist.Total() {
		t.Errorf("merged histogram total %d, want %d", merged.Hist.Total(), pooled.Hist.Total())
	}
}

// TestMergeLatencyBoundsMismatch checks a foreign-bounds histogram surfaces
// the typed stats error instead of misbinning.
func TestMergeLatencyBoundsMismatch(t *testing.T) {
	a := summarizeLatency([]float64{1, 2, 3})
	b := summarizeLatency([]float64{4, 5, 6})
	b.Hist = stats.NewHistogram([]float64{1, 10, 100})
	b.Hist.Add(5)
	_, err := mergeLatency(a, b)
	var bm *stats.BoundsMismatchError
	if !errors.As(err, &bm) {
		t.Fatalf("mismatched bounds merged without the typed error: %v", err)
	}
	// Two reports written before the bounds were recorded decode to
	// histograms with no bounds; they agree with each other, not with the
	// canonical bounds, and must not merge into empty quantiles.
	a.Hist, b.Hist = &stats.Histogram{}, &stats.Histogram{}
	if _, err := mergeLatency(a, b); !errors.As(err, &bm) {
		t.Fatalf("bound-less histograms merged without the typed error: %v", err)
	}
}

// syntheticReport builds a single-class report from raw latency samples.
func syntheticReport(class string, ms []float64, mut func(*Report)) *Report {
	r := &Report{
		Seed:        5,
		DurationSec: 1,
		Requests:    len(ms),
		Classes: map[string]*Stats{
			class: {Requests: len(ms), Latency: summarizeLatency(ms)},
		},
		Properties: map[string]int{"balanced": len(ms)},
		Validated:  len(ms),
	}
	if mut != nil {
		mut(r)
	}
	return r
}

// TestMergeReportsPoolsEverything pins the cross-process merge semantics:
// counts, violations, properties, telemetry sources, cache accounting and
// tenant slices all add; throughput is recomputed; durations take the max.
func TestMergeReportsPoolsEverything(t *testing.T) {
	a := syntheticReport(ClassSolve, []float64{1, 2, 3, 4}, func(r *Report) {
		r.Shed = 1
		r.ServerShed = 2
		r.DurationSec = 2
		r.RatePerSec = 100
		r.ViolationCount = 1
		r.Violations = []string{"solve x: makespan below bound"}
		r.Classes[ClassSolve].Telemetry = TelemetryAgg{Nodes: 10, Sources: map[string]int{"solve": 4}}
		r.Tenants = map[string]*Stats{"gold": {Requests: 4, Latency: summarizeLatency([]float64{1, 2, 3, 4})}}
		r.Cache = CacheAccounting{FreshSolves: 3, CacheServed: 1, HitRatio: 0.25}
		r.MetricsDelta = MetricsSnapshot{"crsharing_solves_total": 3}
	})
	b := syntheticReport(ClassSolve, []float64{5, 6}, func(r *Report) {
		r.DurationSec = 1.5
		r.RatePerSec = 50
		r.Classes[ClassSolve].Errors = 1
		r.Classes[ClassSolve].Telemetry = TelemetryAgg{Nodes: 5, Sources: map[string]int{"cache": 2}}
		r.Tenants = map[string]*Stats{"free": {Requests: 2, Latency: summarizeLatency([]float64{5, 6})}}
		r.Cache = CacheAccounting{FreshSolves: 1, CacheServed: 3, HitRatio: 0.75}
		r.MetricsDelta = MetricsSnapshot{"crsharing_solves_total": 1}
	})

	m, err := MergeReports(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 6 || m.Shed != 1 || m.ServerShed != 2 || m.Validated != 6 || m.ViolationCount != 1 {
		t.Errorf("merged totals wrong: %+v", m)
	}
	if m.Shards != 2 {
		t.Errorf("merged shards %d, want 2", m.Shards)
	}
	if m.DurationSec != 2 {
		t.Errorf("merged duration %v, want the max 2", m.DurationSec)
	}
	if m.RatePerSec != 150 {
		t.Errorf("merged rate %v, want the sum 150", m.RatePerSec)
	}
	if m.Throughput != 3 {
		t.Errorf("merged throughput %v, want 6 requests / 2 s", m.Throughput)
	}
	cs := m.Classes[ClassSolve]
	if cs.Requests != 6 || cs.Errors != 1 || cs.Latency.Count != 6 {
		t.Errorf("merged class stats wrong: %+v", cs)
	}
	if cs.Telemetry.Nodes != 15 || cs.Telemetry.Sources["solve"] != 4 || cs.Telemetry.Sources["cache"] != 2 {
		t.Errorf("merged telemetry wrong: %+v", cs.Telemetry)
	}
	if m.Tenants["gold"].Requests != 4 || m.Tenants["free"].Requests != 2 {
		t.Errorf("merged tenants wrong: %+v", m.Tenants)
	}
	if m.Cache.FreshSolves != 4 || m.Cache.CacheServed != 4 || m.Cache.HitRatio != 0.5 {
		t.Errorf("merged cache accounting wrong: %+v", m.Cache)
	}
	if m.MetricsDelta["crsharing_solves_total"] != 4 {
		t.Errorf("merged metrics delta wrong: %+v", m.MetricsDelta)
	}
	if m.Properties["balanced"] != 6 {
		t.Errorf("merged properties wrong: %+v", m.Properties)
	}
	if len(m.Violations) != 1 || !strings.Contains(m.Violations[0], "makespan") {
		t.Errorf("merged violations wrong: %v", m.Violations)
	}
	// Exact quantile ordering survives the merge: the pooled sample is
	// 1..6 ms, so p50 must sit well below p99.
	if !(cs.Latency.P50MS < cs.Latency.P99MS) || cs.Latency.MinMS != 1 || cs.Latency.MaxMS != 6 {
		t.Errorf("merged latency summary inconsistent: %+v", cs.Latency)
	}
	if m.Text() == "" {
		t.Error("merged report renders empty")
	}
}

// TestMergeReportsViolationCap checks the merged violation list stays bounded
// while the count keeps the truth.
func TestMergeReportsViolationCap(t *testing.T) {
	var reports []*Report
	for i := 0; i < 3; i++ {
		reports = append(reports, syntheticReport(ClassSolve, []float64{1}, func(r *Report) {
			r.ViolationCount = maxRecordedViolations
			for j := 0; j < maxRecordedViolations; j++ {
				r.Violations = append(r.Violations, "v")
			}
		}))
	}
	m, err := MergeReports(reports...)
	if err != nil {
		t.Fatal(err)
	}
	if m.ViolationCount != 3*maxRecordedViolations {
		t.Errorf("merged violation count %d, want %d", m.ViolationCount, 3*maxRecordedViolations)
	}
	if len(m.Violations) != maxRecordedViolations {
		t.Errorf("merged violation list %d entries, want the cap %d", len(m.Violations), maxRecordedViolations)
	}
}

// TestMergeReportsEmpty checks the degenerate calls.
func TestMergeReportsEmpty(t *testing.T) {
	if _, err := MergeReports(); err == nil {
		t.Fatal("merging zero reports succeeded")
	}
	solo := syntheticReport(ClassSolve, []float64{1, 2}, nil)
	m, err := MergeReports(solo)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 2 || m.Shards != 1 {
		t.Errorf("identity merge wrong: %+v", m)
	}
}

// TestLatencyHistogramRender sanity-checks the coalesced ASCII rendering: it
// is non-empty for occupied histograms, bounded in rows and labelled in ms.
func TestLatencyHistogramRender(t *testing.T) {
	var ms []float64
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		ms = append(ms, math.Pow(10, rng.Float64()*4-1)) // 0.1ms .. 1000ms
	}
	sum := summarizeLatency(ms)
	lines := strings.Split(strings.TrimRight(sum.Histogram, "\n"), "\n")
	if len(lines) == 0 || len(lines) > 18 {
		t.Fatalf("histogram rendered %d rows", len(lines))
	}
	for _, line := range lines {
		if !strings.Contains(line, "] ms") {
			t.Fatalf("histogram row missing ms label: %q", line)
		}
	}
	sort.Float64s(ms)
	if sum.P50MS < ms[0] || sum.P50MS > ms[len(ms)-1] {
		t.Fatalf("p50 %v outside sample range", sum.P50MS)
	}
}
