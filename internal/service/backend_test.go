package service

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"

	"crsharing/internal/gen"
	"crsharing/internal/jobs"
	"crsharing/internal/solver"
)

// listenAndBuild builds a backend from o on a loopback listener. The test
// closes it.
func listenAndBuild(t *testing.T, o Options) *Backend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(o, ln)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func closeBackend(t *testing.T, b *Backend) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A connection dialled but never sent a request on would hold
	// http.Server.Shutdown for five seconds.
	http.DefaultClient.CloseIdleConnections()
	if err := b.Close(ctx); err != nil {
		t.Fatalf("backend close: %v", err)
	}
}

// solveSource posts a solve and returns where its answer came from.
func solveSource(t *testing.T, b *Backend, req SolveRequest) string {
	t.Helper()
	resp, body := postJSON(t, b.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.Source
}

// TestBuildRestartAndDisabledParts covers what crserved's flags promise
// across a restart and at their zero values. A backend restarted on the same
// -cache-dir and -store answers a repeat solve from the restored cache and a
// finished job from the store; -queue 0 removes the job API and
// -cache-capacity 0 solves every request afresh.
func TestBuildRestartAndDisabledParts(t *testing.T) {
	o := DefaultOptions()
	o.DefaultSolver = "greedy-balance"
	o.CacheDir = t.TempDir()
	o.StoreDir = t.TempDir()
	inst := gen.Figure3(8)

	first := listenAndBuild(t, o)
	if got := solveSource(t, first, SolveRequest{Instance: inst}); got != string(solver.SourceSolve) {
		t.Fatalf("first solve source %q, want %q", got, solver.SourceSolve)
	}
	resp, body := postJSON(t, first.URL+"/v1/jobs", JobRequest{Instance: gen.Figure3(10)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d: %s", resp.StatusCode, body)
	}
	var job jobs.Snapshot
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	readSSE(t, first.URL+"/v1/jobs/"+job.ID+"/events") // returns once the job ends
	done := getJob(t, first.URL, job.ID)
	if done.State != jobs.StateDone || done.Result == nil {
		t.Fatalf("job did not finish: %+v", done)
	}
	closeBackend(t, first)

	second := listenAndBuild(t, o)
	defer closeBackend(t, second)
	if second.CacheLoad.Restored < 1 {
		t.Fatalf("restart restored %d cache entries, want at least 1", second.CacheLoad.Restored)
	}
	if got := solveSource(t, second, SolveRequest{Instance: inst}); got != string(solver.SourceCache) {
		t.Fatalf("repeat solve after restart: source %q, want %q", got, solver.SourceCache)
	}
	restored := getJob(t, second.URL, job.ID)
	if restored.State != jobs.StateDone || restored.Result == nil || restored.Result.Makespan != done.Result.Makespan {
		t.Fatalf("job not served from the store: %+v", restored)
	}

	bare := DefaultOptions()
	bare.DefaultSolver = "greedy-balance"
	bare.QueueDepth = 0
	bare.CacheCapacity = 0
	b := listenAndBuild(t, bare)
	defer closeBackend(t, b)
	if resp, body := postJSON(t, b.URL+"/v1/jobs", JobRequest{Instance: inst}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job submit with -queue 0: status %d, want 404: %s", resp.StatusCode, body)
	}
	for i := 0; i < 2; i++ {
		if got := solveSource(t, b, SolveRequest{Instance: inst}); got != string(solver.SourceSolve) {
			t.Fatalf("solve %d with -cache-capacity 0: source %q, want %q", i, got, solver.SourceSolve)
		}
	}
}
