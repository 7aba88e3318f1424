package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/service"
	"crsharing/internal/solver"
)

// countSolver delegates to greedy-balance and counts invocations, so tests
// can assert exactly how many FRESH solves the fleet performed.
type countSolver struct {
	calls atomic.Int64
}

func (s *countSolver) Name() string { return "stub" }

func (s *countSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	s.calls.Add(1)
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	return sched, solver.Stats{Solver: "stub", Elapsed: time.Microsecond}, err
}

// backendFixture is one crsharing backend: its engine (for telemetry), its
// counting solver and its HTTP frontend.
type backendFixture struct {
	eng  *engine.Engine
	stub *countSolver
	ts   *httptest.Server
}

func (b *backendFixture) freshSolves() uint64 { return b.eng.Snapshot().SourceSolve }

// newBackend builds a full backend (engine + memo cache + service layer,
// optionally the job manager) behind an httptest listener.
func newBackend(t testing.TB, withJobs bool) *backendFixture {
	t.Helper()
	stub := &countSolver{}
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return stub })
	eng, err := engine.New(engine.Config{
		Registry:       reg,
		Cache:          solver.NewCache(4, 1024),
		DefaultSolver:  "stub",
		DefaultTimeout: 5 * time.Second,
		MaxTimeout:     10 * time.Second,
		MaxConcurrent:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var jm *jobs.Manager
	if withJobs {
		jm, err = jobs.New(jobs.Config{Engine: eng, DefaultSolver: "stub", Workers: 2, QueueDepth: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			jm.Close(ctx)
		})
	}
	srv, err := service.New(service.Config{Engine: eng, Jobs: jm, Version: "router-test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &backendFixture{eng: eng, stub: stub, ts: ts}
}

// newRouter fronts the fixtures with a Router behind its own listener.
func newRouter(t testing.TB, cfg Config, backends ...*backendFixture) (*Router, *httptest.Server) {
	t.Helper()
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, b.ts.URL)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// testInstances builds n distinct valid instances.
func testInstances(n int) []*core.Instance {
	out := make([]*core.Instance, n)
	for i := range out {
		out[i] = core.NewInstance(
			[]float64{float64(i+1) / float64(n+2), 0.5},
			[]float64{0.25, float64(i%7+1) / 8},
		)
	}
	return out
}

// spanningInstances returns n distinct instances that the router's ring
// splits over at least two backends. The ring hashes the backends' URLs,
// whose ports the listener picks at random, so a fixed batch of 8 lands
// whole on one of two backends in about one run in 128.
func spanningInstances(t testing.TB, rt *Router, n int) []*core.Instance {
	t.Helper()
	pool := testInstances(4 * n)
	owner := func(inst *core.Instance) string {
		_, o := rt.pick(inst.Fingerprint().Uint64(), "")
		return o
	}
	out, first := pool[:n:n], owner(pool[0])
	for _, inst := range out[1:] {
		if owner(inst) != first {
			return out
		}
	}
	for _, inst := range pool[n:] {
		if owner(inst) != first {
			out[n-1] = inst
			return out
		}
	}
	t.Fatalf("all %d candidate instances are owned by %s", len(pool), first)
	return nil
}

func solveVia(t *testing.T, url string, inst *core.Instance) service.SolveResponse {
	t.Helper()
	status, sr, err := trySolveVia(url, inst)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("solve status %d", status)
	}
	return sr
}

func trySolveVia(url string, inst *core.Instance) (int, service.SolveResponse, error) {
	raw, err := json.Marshal(service.SolveRequest{Instance: inst})
	if err != nil {
		return 0, service.SolveResponse{}, err
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, service.SolveResponse{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, service.SolveResponse{}, err
	}
	var sr service.SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &sr); err != nil {
			return resp.StatusCode, sr, fmt.Errorf("decoding solve response: %w (%s)", err, data)
		}
	}
	return resp.StatusCode, sr, nil
}

func routerMetricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

// TestRouterFleetBehavesAsOneCache: N distinct instances solved through the
// router partition across the backends (each solved exactly once, fleet-wide)
// and EVERY repeat — whatever backend receives it — is cache- or
// coalesced-served, never a fresh solve.
func TestRouterFleetBehavesAsOneCache(t *testing.T) {
	a, b := newBackend(t, false), newBackend(t, false)
	_, rts := newRouter(t, Config{}, a, b)
	insts := testInstances(24)

	for _, inst := range insts {
		if sr := solveVia(t, rts.URL, inst); sr.Source != "solve" {
			t.Fatalf("first solve of %s answered from %q", inst.Fingerprint().Short(), sr.Source)
		}
	}
	firstA, firstB := a.freshSolves(), b.freshSolves()
	if firstA+firstB != uint64(len(insts)) {
		t.Fatalf("fleet solved %d fresh for %d distinct instances", firstA+firstB, len(insts))
	}
	if firstA == 0 || firstB == 0 {
		t.Fatalf("fingerprints did not partition: backend A solved %d, B solved %d", firstA, firstB)
	}

	// Repeat pass: zero fresh solves anywhere in the fleet.
	for _, inst := range insts {
		if sr := solveVia(t, rts.URL, inst); sr.Source == "solve" {
			t.Fatalf("repeat solve of %s was fresh", inst.Fingerprint().Short())
		}
	}
	if a.freshSolves() != firstA || b.freshSolves() != firstB {
		t.Fatalf("repeats caused fresh solves: A %d→%d, B %d→%d",
			firstA, a.freshSolves(), firstB, b.freshSolves())
	}
}

// TestRouterBatchSplitMergesInOrder: a batch spanning both backends is split
// by owner and re-merged under the original indices.
func TestRouterBatchSplitMergesInOrder(t *testing.T) {
	a, b := newBackend(t, false), newBackend(t, false)
	rt, rts := newRouter(t, Config{}, a, b)
	insts := spanningInstances(t, rt, 16)

	raw, err := json.Marshal(service.BatchRequest{Instances: insts})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(rts.URL+"/v1/batch-solve", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if br.Count != len(insts) || br.Solved != len(insts) || len(br.Results) != len(insts) {
		t.Fatalf("merged batch: count=%d solved=%d results=%d, want %d each", br.Count, br.Solved, len(br.Results), len(insts))
	}
	for i, res := range br.Results {
		if res.Index != i {
			t.Fatalf("result %d carries index %d: merge lost the original order", i, res.Index)
		}
		if res.Error != "" || res.Makespan <= 0 {
			t.Fatalf("result %d: makespan=%d error=%q", i, res.Makespan, res.Error)
		}
	}
	if a.freshSolves() == 0 || b.freshSolves() == 0 {
		t.Fatalf("batch did not split: A solved %d, B solved %d", a.freshSolves(), b.freshSolves())
	}
	if !strings.Contains(routerMetricsText(t, rts.URL), "crrouter_batch_splits_total 1") {
		t.Error("router did not count the batch split")
	}
}

// TestRouterDrainPeerFill is the drain contract: draining a backend routes
// its keys to the successor, but repeats of its warm keys are FILLED from the
// draining backend's cache — the fleet performs zero fresh solves even though
// the receiving backend is cold for those keys.
func TestRouterDrainPeerFill(t *testing.T) {
	a, b := newBackend(t, false), newBackend(t, false)
	rt, rts := newRouter(t, Config{}, a, b)
	insts := testInstances(24)

	for _, inst := range insts {
		solveVia(t, rts.URL, inst)
	}
	fleetFresh := a.freshSolves() + b.freshSolves()

	// Drain B via the admin endpoint (the operator's path).
	resp, err := http.Post(rts.URL+"/admin/drain?backend="+b.ts.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	for _, st := range rt.Backends() {
		if st.URL == b.ts.URL && !st.Draining {
			t.Fatal("admin drain did not mark the backend draining")
		}
	}

	// Every repeat answers from a cache (A's own, or B's via peer fill), and
	// the fleet-wide fresh-solve count does not move.
	for _, inst := range insts {
		if sr := solveVia(t, rts.URL, inst); sr.Source == "solve" {
			t.Fatalf("repeat of %s re-solved during drain", inst.Fingerprint().Short())
		}
	}
	if got := a.freshSolves() + b.freshSolves(); got != fleetFresh {
		t.Fatalf("drain caused %d fresh solves", got-fleetFresh)
	}
	mr := routerMetricsText(t, rts.URL)
	if strings.Contains(mr, "crrouter_forwarded_owner_total 0\n") {
		t.Error("router never set the owner header while draining")
	}
	if !strings.Contains(mr, "crrouter_backends_draining 1") {
		t.Error("draining gauge did not move")
	}

	// Undrain restores direct routing.
	resp, err = http.Post(rts.URL+"/admin/undrain?backend="+b.ts.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	for _, st := range rt.Backends() {
		if st.URL == b.ts.URL && st.Draining {
			t.Fatal("undrain did not clear the draining mark")
		}
	}
}

// TestRouterEjectsKilledBackend: killing a backend mid-run keeps the fleet
// serving — transport errors are retried on the survivor, the dead backend is
// ejected after FailAfter consecutive failures, and client-visible errors are
// zero.
func TestRouterEjectsKilledBackend(t *testing.T) {
	a, b := newBackend(t, false), newBackend(t, false)
	rt, rts := newRouter(t, Config{FailAfter: 2, ProbeInterval: 50 * time.Millisecond}, a, b)
	rt.Start()
	insts := testInstances(32)

	for _, inst := range insts {
		solveVia(t, rts.URL, inst)
	}
	b.ts.Close() // kill B: connections refused from here on

	for round := 0; round < 2; round++ {
		for _, inst := range insts {
			status, _, err := trySolveVia(rts.URL, inst)
			if err != nil {
				t.Fatalf("client transport error after kill: %v", err)
			}
			if status != http.StatusOK {
				t.Fatalf("client-visible error %d after kill: the retry should absorb it", status)
			}
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		ejected := false
		for _, st := range rt.Backends() {
			if st.URL == b.ts.URL && !st.Healthy {
				ejected = true
			}
		}
		if ejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("killed backend was never ejected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	mr := routerMetricsText(t, rts.URL)
	if strings.Contains(mr, "crrouter_ejections_total 0\n") {
		t.Error("ejection counter did not move")
	}
	if !strings.Contains(mr, "crrouter_backends_healthy 1") {
		t.Error("healthy gauge did not drop to 1")
	}
}

// TestRouterReadmitsRecoveredBackend: a backend whose /healthz turns
// unhealthy is ejected by the probes and re-admitted as soon as a probe
// succeeds again.
func TestRouterReadmitsRecoveredBackend(t *testing.T) {
	a := newBackend(t, false)
	var sick atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && sick.Load() {
			http.Error(w, "sick", http.StatusServiceUnavailable)
			return
		}
		a.ts.Config.Handler.ServeHTTP(w, r) // otherwise act like a real backend
	}))
	t.Cleanup(flaky.Close)

	rt, err := New(Config{
		Backends:      []string{a.ts.URL, flaky.URL},
		FailAfter:     2,
		ProbeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.Start()

	waitState := func(url string, healthy bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			for _, st := range rt.Backends() {
				if st.URL == url && st.Healthy == healthy {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("backend never became %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	sick.Store(true)
	waitState(flaky.URL, false, "ejected")
	sick.Store(false)
	waitState(flaky.URL, true, "re-admitted")
}

// TestRouterJobsAcrossFleet: jobs submitted through the router land on their
// fingerprint's backend, are found by ID from any entry point, stream events,
// merge into one fleet-wide listing, and cancel.
func TestRouterJobsAcrossFleet(t *testing.T) {
	a, b := newBackend(t, true), newBackend(t, true)
	_, rts := newRouter(t, Config{}, a, b)
	insts := testInstances(8)

	ids := make([]string, 0, len(insts))
	for _, inst := range insts {
		raw, err := json.Marshal(service.JobRequest{Instance: inst})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(rts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job submit status %d", resp.StatusCode)
		}
		var snap jobs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, snap.ID)
	}

	// Every job is findable through the router and reaches a terminal state.
	for _, id := range ids {
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get(rts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("job %s lookup status %d", id, resp.StatusCode)
			}
			var snap jobs.Snapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if snap.State == jobs.StateDone {
				break
			}
			if snap.State == jobs.StateFailed || snap.State == jobs.StateCancelled {
				t.Fatalf("job %s ended %s: %s", id, snap.State, snap.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished (state %s)", id, snap.State)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The SSE stream for a finished job opens through the router and closes
	// at the terminal state.
	resp, err := http.Get(rts.URL + "/v1/jobs/" + ids[0] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(events), "event: state") {
		t.Fatalf("events stream via router: err=%v body=%q", err, events)
	}

	// The fleet listing merges both backends' jobs.
	resp, err = http.Get(rts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list service.JobListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Count != len(ids) {
		t.Fatalf("fleet job listing has %d jobs, want %d", list.Count, len(ids))
	}

	// Unknown IDs 404 after probing every backend.
	resp, err = http.Get(rts.URL + "/v1/jobs/00000000deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job lookup status %d, want 404", resp.StatusCode)
	}
}
