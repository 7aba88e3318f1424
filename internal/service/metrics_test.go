package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/solver"
	"crsharing/internal/stats"
)

// TestMetricsExpositionFormat pins the /metrics contract: the Prometheus
// text exposition content type (version 0.0.4) and, for every sample, a
// preceding # HELP and # TYPE line declaring a valid metric type. Histogram
// samples (the engine's solve duration and search-size distributions) are
// declared under their base name and expose cumulative le-labelled buckets
// plus _sum and _count. The job gauges must be present when a job manager
// is configured.
func TestMetricsExpositionFormat(t *testing.T) {
	reg := solver.NewRegistry()
	stub := &stubSolver{name: "stub"}
	reg.Register("stub", func() solver.Solver { return stub })
	eng := newTestEngine(t, engine.Config{Registry: reg, Cache: solver.NewCache(4, 64), DefaultSolver: "stub"})
	manager, err := jobs.New(jobs.Config{Engine: eng, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		manager.Close(ctx)
	})
	srv, err := New(Config{Engine: eng, Jobs: manager, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Generate some traffic so the counters are live, including a job.
	if resp, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance()}); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve failed: %d", resp.StatusCode)
	}
	snap, err := manager.Submit(jobs.Request{Instance: testInstance()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := manager.Wait(ctx, snap.ID); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q, want the Prometheus 0.0.4 text format", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	help := map[string]bool{}
	typed := map[string]bool{}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, doc, ok := strings.Cut(rest, " ")
			if !ok || doc == "" {
				t.Fatalf("HELP line without docstring: %q", line)
			}
			help[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, kind, ok := strings.Cut(rest, " ")
			if !ok || (kind != "counter" && kind != "gauge" && kind != "histogram") {
				t.Fatalf("TYPE line with invalid type: %q", line)
			}
			typed[name] = true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unexpected comment line: %q", line)
		case line == "":
			t.Fatal("blank line in exposition output")
		default:
			name, value, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed sample line: %q", line)
			}
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("sample %q has non-numeric value: %v", line, err)
			}
			// Histogram series samples are declared under the base name:
			// name_bucket{le="..."}, name_sum and name_count all belong to
			// the histogram declared as "name".
			base := name
			if idx := strings.IndexByte(base, '{'); idx >= 0 {
				base = base[:idx]
			}
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if trimmed := strings.TrimSuffix(base, suffix); trimmed != base && typed[trimmed] {
					base = trimmed
					break
				}
			}
			if !help[base] || !typed[base] {
				t.Fatalf("sample %q not preceded by its HELP and TYPE lines", name)
			}
			samples[name] = v
		}
	}

	for _, want := range []string{
		"crsharing_requests_solve_total",
		"crsharing_requests_shed_total",
		"crsharing_solves_total",
		"crsharing_cache_entries",
		"crsharing_engine_shed_total",
		`crsharing_tenant_requests_total{tenant="default"}`,
		`crsharing_tenant_shed_total{tenant="default"}`,
		`crsharing_tenant_errors_total{tenant="default"}`,
		`crsharing_tenant_queue_wait_seconds_total{tenant="default"}`,
		`crsharing_tenant_inflight{tenant="default"}`,
		`crsharing_tenant_queued{tenant="default"}`,
		"crsharing_engine_nodes_total",
		"crsharing_engine_incumbents_total",
		"crsharing_engine_solve_duration_seconds_sum",
		"crsharing_engine_solve_duration_seconds_count",
		"crsharing_engine_solve_nodes_sum",
		"crsharing_engine_solve_nodes_count",
		"crsharing_jobs_queue_depth",
		"crsharing_jobs_queue_capacity",
		"crsharing_jobs_running",
		"crsharing_jobs_workers",
		"crsharing_jobs_submitted_total",
		"crsharing_jobs_done_total",
		"crsharing_jobs_failed_total",
		"crsharing_jobs_cancelled_total",
	} {
		if _, ok := samples[want]; !ok {
			t.Errorf("metric %s missing from /metrics", want)
		}
	}
	if samples["crsharing_jobs_submitted_total"] != 1 || samples["crsharing_jobs_done_total"] != 1 {
		t.Fatalf("job counters wrong: submitted=%v done=%v",
			samples["crsharing_jobs_submitted_total"], samples["crsharing_jobs_done_total"])
	}
}

// TestHistogramCumulativeBuckets pins writeHistogram's exposition of one
// histogram: per-bucket counts become cumulative le buckets, and the
// overflow slot counts only in +Inf and _count.
func TestHistogramCumulativeBuckets(t *testing.T) {
	h := stats.NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Add(v)
	}
	var b strings.Builder
	writeHistogram(&b, "x", "Help.", h)
	want := `# HELP x Help.
# TYPE x histogram
x_bucket{le="1"} 1
x_bucket{le="10"} 3
x_bucket{le="100"} 4
x_bucket{le="+Inf"} 5
x_sum 560.5
x_count 5
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// nodesSolver answers with greedy-balance and reports a search size chosen
// by the instance's job count on the first processor, so a test can place
// fresh solves in known crsharing_engine_solve_nodes buckets.
type nodesSolver struct{ nodes map[int]int64 }

func (s *nodesSolver) Name() string { return "nodes" }

func (s *nodesSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	sched, err := greedybalance.New().Schedule(ctx, inst)
	return sched, solver.Stats{Solver: "nodes", Nodes: s.nodes[inst.NumJobs(0)]}, err
}

// TestMetricsHistogramExposition pins both engine histograms on /metrics:
// the exact le label list of each, the cumulative _bucket counts of the
// search-size histogram for solves of known size, and the +Inf bucket equal
// to _count.
func TestMetricsHistogramExposition(t *testing.T) {
	// One fresh solve per bucket edge case: 0 and 100 sit on a bound, 5
	// between two, and 2e7 above the last.
	ns := &nodesSolver{nodes: map[int]int64{1: 0, 2: 5, 3: 100, 4: 20_000_000}}
	reg := solver.NewRegistry()
	reg.Register("nodes", func() solver.Solver { return ns })
	eng := newTestEngine(t, engine.Config{Registry: reg, Cache: solver.NewCache(4, 64), DefaultSolver: "nodes"})
	srv, err := New(Config{Engine: eng, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for jobs := 1; jobs <= 4; jobs++ {
		reqs := make([]float64, jobs)
		for j := range reqs {
			reqs[j] = 0.25
		}
		inst := core.NewInstance(reqs, []float64{0.5})
		if resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: inst}); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve with %d jobs: %d %s", jobs, resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// series collects a histogram's bucket labels and counts in exposition
	// order, and its _sum and _count.
	series := func(name string) (les []string, counts []uint64, sum float64, count uint64) {
		t.Helper()
		for _, line := range strings.Split(string(body), "\n") {
			key, value, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			switch {
			case strings.HasPrefix(key, name+`_bucket{le="`):
				les = append(les, strings.TrimSuffix(strings.TrimPrefix(key, name+`_bucket{le="`), `"}`))
				n, err := strconv.ParseUint(value, 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				counts = append(counts, n)
			case key == name+"_sum":
				if sum, err = strconv.ParseFloat(value, 64); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
			case key == name+"_count":
				if count, err = strconv.ParseUint(value, 10, 64); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
			}
		}
		return les, counts, sum, count
	}

	les, counts, _, count := series("crsharing_engine_solve_duration_seconds")
	if want := []string{"0.001", "0.005", "0.025", "0.1", "0.5", "1", "2.5", "10", "30", "120", "+Inf"}; !slices.Equal(les, want) {
		t.Errorf("solve_duration_seconds le labels %v, want %v", les, want)
	}
	if count != 4 || len(counts) == 0 || counts[len(counts)-1] != count {
		t.Errorf("solve_duration_seconds: +Inf bucket %v, _count %d, want both 4", counts, count)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Errorf("solve_duration_seconds buckets not cumulative: %v", counts)
		}
	}

	les, counts, sum, count := series("crsharing_engine_solve_nodes")
	if want := []string{"1", "10", "100", "1000", "10000", "100000", "1e+06", "1e+07", "+Inf"}; !slices.Equal(les, want) {
		t.Errorf("solve_nodes le labels %v, want %v", les, want)
	}
	if want := []uint64{1, 2, 3, 3, 3, 3, 3, 3, 4}; !slices.Equal(counts, want) {
		t.Errorf("solve_nodes buckets %v, want %v", counts, want)
	}
	if count != 4 || sum != 20_000_105 {
		t.Errorf("solve_nodes _count %d _sum %g, want 4 and 20000105", count, sum)
	}
}
