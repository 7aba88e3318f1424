package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"crsharing"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/jobs"
	"crsharing/internal/solver"
)

// TestEndToEnd is the Go port of the CI shell smoke that used to drive a
// crserved binary with curl: it builds the backend crserved builds (Build)
// on a loopback listener and walks the whole lifecycle: health probe, fresh
// solve, cache-served repeat, batch solve, async job with SSE follow,
// metrics accounting, and graceful shutdown. Unlike the shell version it
// revalidates the returned schedules with core.Execute and runs
// race-enabled with the rest of the suite.
func TestEndToEnd(t *testing.T) {
	o := DefaultOptions()
	o.CacheShards, o.CacheCapacity = 8, 256
	o.Workers, o.QueueDepth = 2, 64
	o.JobTimeout, o.JobMaxTimeout = 20*time.Second, time.Minute
	b := listenAndBuild(t, o)
	url := b.URL

	// Liveness first, as the shell loop did before sending traffic.
	var health HealthResponse
	getJSON(t, url+"/healthz", &health)
	if health.Status != "ok" || health.Version != crsharing.Version {
		t.Fatalf("healthz: %+v", health)
	}

	// Fresh solve of the Figure 3 worst-case family (the shell smoke's
	// instance), with the schedule included so it can be revalidated. It
	// names branch-and-bound, which always explores a node: the default
	// portfolio may settle on GreedyBalance's answer at the lower bound
	// before branch-and-bound counts one. The repeat, the batch and the job
	// below name it too: the cache keys answers by solver, and the job
	// checks a node count.
	inst := gen.Figure3(10)
	const exact = "branch-and-bound"
	var first SolveResponse
	resp, body := postJSON(t, url+"/v1/solve", SolveRequest{
		Instance:        inst,
		Solver:          exact,
		Timeout:         "10s",
		IncludeSchedule: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Source != string(solver.SourceSolve) {
		t.Fatalf("first solve source %q, want %q", first.Source, solver.SourceSolve)
	}
	assertScheduleMatches(t, inst, first.Schedule, first.Makespan)
	// The response must carry populated engine telemetry: a fresh
	// branch-and-bound solve explored nodes.
	if first.Telemetry == nil {
		t.Fatal("fresh solve response carries no telemetry")
	}
	if first.Telemetry.Source != string(solver.SourceSolve) || first.Telemetry.Nodes <= 0 {
		t.Fatalf("fresh solve telemetry malformed: %+v", first.Telemetry)
	}
	if first.Telemetry.Makespan != first.Makespan || first.Telemetry.LowerBound != first.LowerBound {
		t.Fatalf("telemetry diverges from the response: %+v vs %+v", first.Telemetry, first)
	}
	if k := first.Telemetry.LowerBoundKind; k != "work" && k != "chain" {
		t.Fatalf("telemetry lower bound kind %q", k)
	}

	// The identical repeat must be answered from the cache with the same
	// fingerprint and result.
	var second SolveResponse
	resp, body = postJSON(t, url+"/v1/solve", SolveRequest{Instance: inst, Solver: exact, Timeout: "10s"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat solve status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Source != string(solver.SourceCache) {
		t.Fatalf("repeat source %q, want %q", second.Source, solver.SourceCache)
	}
	if second.Fingerprint != first.Fingerprint || second.Makespan != first.Makespan {
		t.Fatalf("cache replay diverged: %+v vs %+v", second, first)
	}
	// The cached reply replays the original solve's telemetry with the
	// source corrected: same search effort, answered from the cache.
	if second.Telemetry == nil || second.Telemetry.Source != string(solver.SourceCache) {
		t.Fatalf("cache replay telemetry malformed: %+v", second.Telemetry)
	}
	if second.Telemetry.Nodes != first.Telemetry.Nodes {
		t.Fatalf("cache replay changed the recorded search effort: %d vs %d",
			second.Telemetry.Nodes, first.Telemetry.Nodes)
	}

	// Batch solve mixes the cached instance with fresh ones.
	var batch BatchResponse
	resp, body = postJSON(t, url+"/v1/batch-solve", BatchRequest{
		Solver:    exact,
		Instances: []*core.Instance{inst, gen.Figure1(), gen.Figure2()},
		Timeout:   "10s",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Count != 3 || batch.Solved != 3 || batch.Failed != 0 || batch.Cancelled != 0 {
		t.Fatalf("batch outcome: %+v", batch)
	}
	for _, res := range batch.Results {
		if res.Telemetry == nil || res.Source == "" {
			t.Fatalf("batch result without telemetry: %+v", res)
		}
	}
	// The batch repeated the cached instance: its shard must report a cache
	// source, not a fresh solve.
	if src := batch.Results[0].Source; src == string(solver.SourceSolve) {
		t.Fatalf("batch shard re-solved a cached fingerprint (source %q)", src)
	}

	// Async job lifecycle on a fresh (uncached) instance: accepted pending,
	// SSE stream reaches a terminal state, record carries a valid schedule
	// and, from branch-and-bound, a node count.
	jobInst := gen.Figure3(12)
	resp, body = postJSON(t, url+"/v1/jobs", JobRequest{Instance: jobInst, Solver: exact, Timeout: "20s"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d: %s", resp.StatusCode, body)
	}
	var submitted jobs.Snapshot
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.ID == "" || submitted.State.Terminal() {
		t.Fatalf("bad submit snapshot: %+v", submitted)
	}
	events := readSSE(t, url+"/v1/jobs/"+submitted.ID+"/events")
	sawTerminal := false
	for _, ev := range events {
		if ev.name == string(jobs.EventState) && ev.data.State.Terminal() {
			sawTerminal = true
			// The terminal event of a done job carries the solve telemetry,
			// so SSE consumers see how the answer was produced without
			// re-fetching the record.
			if ev.data.State == jobs.StateDone {
				if ev.data.Telemetry == nil || ev.data.Telemetry.Nodes <= 0 {
					t.Fatalf("terminal SSE event without populated telemetry: %+v", ev.data)
				}
			}
		}
	}
	if !sawTerminal {
		t.Fatalf("SSE stream ended without a terminal state: %+v", events)
	}
	final := getJob(t, url, submitted.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job not done: %+v", final)
	}
	if final.Result == nil {
		t.Fatalf("done job without result: %+v", final)
	}
	assertScheduleMatches(t, jobInst, final.Result.Schedule, final.Result.Makespan)
	if final.Result.Telemetry == nil || final.Result.Telemetry.Nodes <= 0 {
		t.Fatalf("job record without populated telemetry: %+v", final.Result.Telemetry)
	}

	// Metrics must account for everything above, as the shell greps did.
	metricsBody := getText(t, url+"/metrics")
	for _, want := range []string{
		"crsharing_solves_total",
		"crsharing_cache_served_total",
		"crsharing_jobs_done_total 1",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsBody)
		}
	}
	if metric(t, metricsBody, "crsharing_solves_total") < 1 {
		t.Error("no fresh solve counted")
	}
	if metric(t, metricsBody, "crsharing_cache_served_total") < 1 {
		t.Error("no cache-served response counted")
	}

	// Graceful shutdown, as SIGINT does in cmd/crserved: the listener
	// drains, then the job manager closes cleanly and refuses further
	// submissions.
	closeBackend(t, b)
	if _, err := b.jobs.Submit(jobs.Request{Instance: gen.Figure1()}); !errors.Is(err, jobs.ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// assertScheduleMatches re-executes a returned schedule and checks it
// finishes the instance with the claimed makespan — the minimal invariant
// oracle (internal/harness carries the full one; service tests cannot import
// it without inverting the layer order, so the check is inlined).
func assertScheduleMatches(t *testing.T, inst *core.Instance, sched *core.Schedule, makespan int) {
	t.Helper()
	if sched == nil {
		t.Fatal("response carried no schedule")
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		t.Fatalf("returned schedule does not execute: %v", err)
	}
	if !res.Finished() {
		t.Fatal("returned schedule leaves jobs unfinished")
	}
	if res.Makespan() != makespan {
		t.Fatalf("claimed makespan %d, execution yields %d", makespan, res.Makespan())
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// metric extracts an un-labelled sample value from a Prometheus text body.
func metric(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("metric %s has non-numeric value %q", name, fields[1])
			}
			return v
		}
	}
	t.Fatalf("metric %s absent", name)
	return 0
}
