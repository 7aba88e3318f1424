package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/gen"
	"crsharing/internal/jobs"
	"crsharing/internal/progress"
	"crsharing/internal/solver"

	"context"
	"net/http/httptest"
)

// slowSolver reports a stream of improving incumbents while it "searches"
// and needs well over the synchronous deadline to finish. Successful solves
// delegate to greedy-balance so the schedule is valid.
type slowSolver struct {
	ticks int
	tick  time.Duration
}

func (s *slowSolver) Name() string { return "slow" }

func (s *slowSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	progress.Report(ctx, progress.Incumbent{Solver: s.Name(), Makespan: 100})
	for i := 0; i < s.ticks; i++ {
		select {
		case <-time.After(s.tick):
			progress.Report(ctx, progress.Incumbent{Solver: s.Name(), Makespan: 99 - i})
		case <-ctx.Done():
			return nil, solver.Stats{Solver: s.Name()}, ctx.Err()
		}
	}
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	return sched, solver.Stats{Solver: s.Name(), Elapsed: time.Duration(s.ticks) * s.tick}, err
}

// newJobsServer wires a registry serving the given solver (as "slow" and
// default), a shared cache, a jobs manager over an optional store, and an
// httptest frontend with a deliberately tiny synchronous deadline.
func newJobsServer(t *testing.T, sv solver.Solver, store jobs.Store) (*jobs.Manager, *httptest.Server) {
	t.Helper()
	reg := solver.NewRegistry()
	reg.Register(sv.Name(), func() solver.Solver { return sv })
	cache := solver.NewCache(4, 64)
	manager, err := jobs.New(jobs.Config{
		Engine:         newTestEngine(t, engine.Config{Registry: reg, Cache: cache, DefaultSolver: sv.Name()}),
		DefaultSolver:  sv.Name(),
		Workers:        2,
		QueueDepth:     8,
		DefaultTimeout: 30 * time.Second,
		Store:          store,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		manager.Close(ctx)
	})
	srv, err := New(Config{
		Engine: newTestEngine(t, engine.Config{
			Registry:       reg,
			Cache:          cache,
			DefaultSolver:  sv.Name(),
			DefaultTimeout: 30 * time.Millisecond,
			MaxTimeout:     30 * time.Millisecond,
		}),
		Jobs:    manager,
		Version: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return manager, ts
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data jobs.Event
}

// readSSE consumes the stream until the server closes it (terminal state)
// and returns the parsed events.
func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	return events
}

// TestJobOutlivesSyncDeadline is the acceptance path: a solve that the
// synchronous endpoint rejects with 504 completes through POST /v1/jobs,
// the SSE stream carries incumbent updates, and GET /v1/jobs/{id} returns
// the finished schedule.
func TestJobOutlivesSyncDeadline(t *testing.T) {
	sv := &slowSolver{ticks: 8, tick: 100 * time.Millisecond} // ~800ms total, ~25x the sync deadline
	_, ts := newJobsServer(t, sv, nil)

	// Synchronously the instance is unservable: the 30ms deadline expires.
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance()})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("sync solve should time out, got %d: %s", resp.StatusCode, body)
	}

	// Asynchronously it is accepted immediately...
	resp, body = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Instance: testInstance()})
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

	// ...streams incumbents over SSE until done...
	events := readSSE(t, ts.URL+"/v1/jobs/"+submitted.ID+"/events")
	var incumbents int
	var sawTerminal bool
	for _, ev := range events {
		switch ev.name {
		case string(jobs.EventIncumbent):
			if ev.data.Incumbent == nil || ev.data.Incumbent.Makespan <= 0 {
				t.Fatalf("malformed incumbent event: %+v", ev)
			}
			incumbents++
		case string(jobs.EventState):
			if ev.data.State.Terminal() {
				sawTerminal = true
			}
		}
	}
	if incumbents < 1 {
		t.Fatalf("want at least one incumbent update on the stream, got %+v", events)
	}
	if !sawTerminal {
		t.Fatalf("stream ended without a terminal state event: %+v", events)
	}

	// ...and the record now carries the finished schedule.
	final := getJob(t, ts.URL, submitted.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job not done: %+v", final)
	}
	if final.Result == nil || final.Result.Schedule == nil || final.Result.Makespan <= 0 {
		t.Fatalf("missing result schedule: %+v", final.Result)
	}
	if len(final.Incumbents) == 0 {
		t.Fatalf("record lost its incumbents: %+v", final)
	}
}

func getJob(t *testing.T, baseURL, id string) jobs.Snapshot {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job status %d", resp.StatusCode)
	}
	var snap jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestJobEndpointsErrors(t *testing.T) {
	sv := &slowSolver{ticks: 1, tick: time.Millisecond}
	_, ts := newJobsServer(t, sv, nil)

	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{"GET", "/v1/jobs/doesnotexist", http.StatusNotFound},
		{"DELETE", "/v1/jobs/doesnotexist", http.StatusNotFound},
		{"GET", "/v1/jobs/doesnotexist/events", http.StatusNotFound},
		{"GET", "/v1/jobs?state=bogus", http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
	}

	// Bad bodies.
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", JobRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing instance: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Instance: testInstance(), Timeout: "yesterday"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", JobRequest{Instance: testInstance(), Solver: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown solver: status %d", resp.StatusCode)
	}
}

func TestJobCancelAndList(t *testing.T) {
	sv := &slowSolver{ticks: 1000, tick: 50 * time.Millisecond} // effectively forever
	_, ts := newJobsServer(t, sv, nil)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Instance: testInstance()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}

	// The cancellation lands once the solver polls its context.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := getJob(t, ts.URL, snap.ID)
		if cur.State == jobs.StateCancelled {
			break
		}
		if !cur.State.Terminal() && time.Now().After(deadline) {
			t.Fatalf("job never cancelled: %+v", cur)
		}
		if cur.State.Terminal() && cur.State != jobs.StateCancelled {
			t.Fatalf("job ended %q, want cancelled", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	lresp, err := http.Get(ts.URL + "/v1/jobs?state=cancelled")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list JobListResponse
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != snap.ID {
		t.Fatalf("cancelled list wrong: %+v", list)
	}
	lresp2, err := http.Get(ts.URL + "/v1/jobs?state=done")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp2.Body.Close()
	var done JobListResponse
	if err := json.NewDecoder(lresp2.Body).Decode(&done); err != nil {
		t.Fatal(err)
	}
	if done.Count != 0 {
		t.Fatalf("done list should be empty: %+v", done)
	}
}

// TestJobRestartServedFromStore is the service-level restart path: a second
// server over the same store answers GET /v1/jobs/{id} with the stored
// result, with no solver involved.
func TestJobRestartServedFromStore(t *testing.T) {
	store, err := jobs.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sv := &slowSolver{ticks: 2, tick: 10 * time.Millisecond}
	manager, ts := newJobsServer(t, sv, store)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Instance: testInstance()})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := manager.Wait(ctx, snap.ID); err != nil {
		t.Fatal(err)
	}
	if err := manager.Close(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Restart: fresh cache, fresh manager, fresh server — same store. A
	// solver that fails on contact proves nothing re-solves.
	reg := solver.NewRegistry()
	reg.Register("slow", func() solver.Solver { return failSolver{} })
	eng := newTestEngine(t, engine.Config{Registry: reg, DefaultSolver: "slow"})
	manager2, err := jobs.New(jobs.Config{Engine: eng, DefaultSolver: "slow", Workers: 1, QueueDepth: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer manager2.Close(ctx)
	srv2, err := New(Config{Engine: eng, Jobs: manager2, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	restored := getJob(t, ts2.URL, snap.ID)
	if restored.State != jobs.StateDone || restored.Result == nil || restored.Result.Schedule == nil {
		t.Fatalf("restored job not served from store: %+v", restored)
	}
}

// TestShutdownEndsOpenSSEStreams pins the graceful-shutdown contract: an
// open /v1/jobs/{id}/events subscription on a job that runs to its one-minute
// deadline must not pin Backend.Close to that deadline.
func TestShutdownEndsOpenSSEStreams(t *testing.T) {
	o := DefaultOptions()
	o.JobTimeout = time.Minute
	b := listenAndBuild(t, o)

	// The Theorem-6 search on a random eight-processor instance runs to
	// its deadline.
	inst := gen.Random(rand.New(rand.NewSource(1)), 8, 3, 0.1, 0.9)
	resp, body := postJSON(t, b.URL+"/v1/jobs", JobRequest{Instance: inst, Solver: "opt-res-assignment-2"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(b.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if _, err := stream.Body.Read(make([]byte, 1)); err != nil {
		t.Fatalf("no initial state event: %v", err)
	}
	streamClosed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, stream.Body)
		close(streamClosed)
	}()
	for getJob(t, b.URL, snap.ID).State != jobs.StateRunning {
		time.Sleep(10 * time.Millisecond)
	}

	http.DefaultClient.CloseIdleConnections() // see closeBackend
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.Close(ctx); err != nil {
		t.Fatalf("Close returned %v", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("Close took %v with an open SSE stream", took)
	}
	select {
	case <-streamClosed:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream not closed by shutdown")
	}
}

// failSolver errors on every call; restart tests use it to prove stored
// results are served without re-solving.
type failSolver struct{}

func (failSolver) Name() string { return "slow" }

func (failSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	return nil, solver.Stats{Solver: "slow"}, fmt.Errorf("must not be called")
}
