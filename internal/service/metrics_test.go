package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/solver"
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
