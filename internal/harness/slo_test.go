package harness

import (
	"os"
	"strings"
	"testing"
)

// fixtureReport builds a healthy report: brisk latencies, no sheds, warm
// cache, clean oracle.
func fixtureReport(mut func(*Report)) *Report {
	r := syntheticReport(ClassSolve, []float64{1, 2, 3, 4, 5}, func(r *Report) {
		r.Classes[ClassBatch] = &Stats{Requests: 3, Latency: summarizeLatency([]float64{10, 12, 14})}
		r.Requests += 3
		r.Validated += 3
		r.Cache = CacheAccounting{FreshSolves: 2, CacheServed: 6, HitRatio: 0.75}
	})
	if mut != nil {
		mut(r)
	}
	return r
}

func f64(v float64) *float64 { return &v }

// testSLO gates p99 for both exercised classes, the shed rate, the cache
// floor, oracle cleanliness and a minimum request count.
func testSLO() *SLO {
	return &SLO{
		MaxP99MS:         map[string]float64{ClassSolve: 50, ClassBatch: 100},
		MaxShedRate:      f64(0.01),
		MinCacheHitRatio: f64(0.5),
		MinRequests:      5,
	}
}

func TestSLOPass(t *testing.T) {
	violations := testSLO().Evaluate(fixtureReport(nil))
	if len(violations) != 0 {
		t.Fatalf("healthy report violated the SLO: %v", violations)
	}
	verdict := RenderSLOVerdict(testSLO(), violations)
	if !strings.Contains(verdict, "PASS") || !strings.Contains(verdict, "6 gates") {
		t.Fatalf("pass verdict wrong: %q", verdict)
	}
}

func TestSLOP99Violation(t *testing.T) {
	rep := fixtureReport(func(r *Report) {
		r.Classes[ClassSolve].Latency = summarizeLatency([]float64{10, 20, 500})
	})
	violations := testSLO().Evaluate(rep)
	if len(violations) != 1 || violations[0].Gate != "p99/solve" {
		t.Fatalf("want one p99/solve violation, got %v", violations)
	}
	msg := violations[0].Message
	if !strings.Contains(msg, "exceeds ceiling 50.000ms") {
		t.Fatalf("violation message does not name the bound: %q", msg)
	}
	if violations[0].Observed <= 50 {
		t.Fatalf("observed p99 %v not above the bound", violations[0].Observed)
	}
	if verdict := RenderSLOVerdict(testSLO(), violations); !strings.Contains(verdict, "FAIL") || !strings.Contains(verdict, "p99/solve") {
		t.Fatalf("fail verdict wrong: %q", verdict)
	}
}

func TestSLOShedRateViolation(t *testing.T) {
	rep := fixtureReport(func(r *Report) {
		r.Shed = 1       // driver dropped one arrival
		r.ServerShed = 2 // server refused two over quota
	})
	violations := testSLO().Evaluate(rep)
	if len(violations) != 1 || violations[0].Gate != "shed-rate" {
		t.Fatalf("want one shed-rate violation, got %v", violations)
	}
	// 3 sheds over 9 offered arrivals.
	if got := violations[0].Observed; got < 0.33 || got > 0.34 {
		t.Fatalf("observed shed rate %v, want 3/9", got)
	}
	if !strings.Contains(violations[0].Message, "driver 1 + server 2") {
		t.Fatalf("shed message does not attribute the sheds: %q", violations[0].Message)
	}
}

func TestSLOCacheFloorViolation(t *testing.T) {
	rep := fixtureReport(func(r *Report) {
		r.Cache = CacheAccounting{FreshSolves: 9, CacheServed: 1, HitRatio: 0.1}
	})
	violations := testSLO().Evaluate(rep)
	if len(violations) != 1 || violations[0].Gate != "cache-hit-ratio" {
		t.Fatalf("want one cache-hit-ratio violation, got %v", violations)
	}
	if !strings.Contains(violations[0].Message, "below floor 0.5000") {
		t.Fatalf("cache message does not name the floor: %q", violations[0].Message)
	}
}

func TestSLOOracleViolation(t *testing.T) {
	rep := fixtureReport(func(r *Report) {
		r.ViolationCount = 2
		r.Violations = []string{"solve x: schedule overlaps", "solve y: below bound"}
	})
	violations := testSLO().Evaluate(rep)
	if len(violations) != 1 || violations[0].Gate != "oracle" {
		t.Fatalf("want one oracle violation, got %v", violations)
	}
	if !strings.Contains(violations[0].Message, "schedule overlaps") {
		t.Fatalf("oracle message does not carry the first violation: %q", violations[0].Message)
	}
}

func TestSLOUnexercisedClassViolates(t *testing.T) {
	slo := &SLO{MaxP99MS: map[string]float64{ClassJobs: 100}}
	violations := slo.Evaluate(fixtureReport(nil))
	if len(violations) != 1 || violations[0].Gate != "p99/jobs" {
		t.Fatalf("gating an unexercised class must violate, got %v", violations)
	}
}

func TestSLOMinRequestsViolation(t *testing.T) {
	slo := &SLO{MinRequests: 1000}
	violations := slo.Evaluate(fixtureReport(nil))
	if len(violations) != 1 || violations[0].Gate != "min-requests" {
		t.Fatalf("want a min-requests violation, got %v", violations)
	}
}

func TestSLOMultipleViolationsStableOrder(t *testing.T) {
	rep := fixtureReport(func(r *Report) {
		r.Classes[ClassSolve].Latency = summarizeLatency([]float64{500})
		r.Classes[ClassBatch].Latency = summarizeLatency([]float64{500})
		r.Cache.HitRatio = 0
		r.ViolationCount = 1
		r.Violations = []string{"v"}
	})
	violations := testSLO().Evaluate(rep)
	var gates []string
	for _, v := range violations {
		gates = append(gates, v.Gate)
	}
	want := []string{"p99/batch", "p99/solve", "cache-hit-ratio", "oracle"}
	if strings.Join(gates, ",") != strings.Join(want, ",") {
		t.Fatalf("violation order %v, want %v", gates, want)
	}
}

func TestParseSLOStrict(t *testing.T) {
	good := `{"max_p99_ms": {"solve": 50}, "max_shed_rate": 0.02, "min_cache_hit_ratio": 0.3, "min_requests": 10}`
	s, err := ParseSLO([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxP99MS[ClassSolve] != 50 || *s.MaxShedRate != 0.02 || *s.MinCacheHitRatio != 0.3 || s.MinRequests != 10 {
		t.Fatalf("parsed SLO wrong: %+v", s)
	}
	for name, bad := range map[string]string{
		"unknown key":   `{"max_p99": {"solve": 50}}`,
		"unknown class": `{"max_p99_ms": {"solver": 50}}`,
		"trailing data": `{"min_requests": 1} {"min_requests": 2}`,
		"not json":      `max_p99_ms: 50`,
	} {
		if _, err := ParseSLO([]byte(bad)); err == nil {
			t.Errorf("%s accepted: %s", name, bad)
		}
	}
}

func TestLoadSLO(t *testing.T) {
	path := t.TempDir() + "/slo.json"
	if err := os.WriteFile(path, []byte(`{"min_requests": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSLO(path)
	if err != nil || s.MinRequests != 3 {
		t.Fatalf("LoadSLO: %+v, %v", s, err)
	}
	if _, err := LoadSLO(path + ".missing"); err == nil {
		t.Fatal("loading a missing SLO succeeded")
	}
}
