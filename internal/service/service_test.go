package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/solver"
)

// stubSolver counts Solve calls, optionally blocks until released or the
// context expires, and records whether the context carried a deadline. On
// success it delegates to greedy-balance so the schedule is valid.
type stubSolver struct {
	name        string
	calls       atomic.Int64
	sawDeadline atomic.Bool
	block       chan struct{} // when non-nil, Solve waits for close or ctx
}

func (s *stubSolver) Name() string { return s.name }

func (s *stubSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, solver.Stats, error) {
	s.calls.Add(1)
	if _, ok := ctx.Deadline(); ok {
		s.sawDeadline.Store(true)
	}
	if s.block != nil {
		select {
		case <-s.block:
		case <-ctx.Done():
			return nil, solver.Stats{Solver: s.name}, ctx.Err()
		}
	}
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	return sched, solver.Stats{Solver: s.name, Elapsed: time.Microsecond}, err
}

// newTestEngine builds an engine from cfg, failing the test on error.
func newTestEngine(t testing.TB, cfg engine.Config) *engine.Engine {
	t.Helper()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// newTestServer builds a Server over an engine whose registry serves the
// given stub under the name "stub" and returns it with its httptest
// frontend. mutate, when non-nil, adjusts both configs before they are used.
func newTestServer(t testing.TB, stub *stubSolver, mutate func(*engine.Config, *Config)) (*Server, *httptest.Server) {
	t.Helper()
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return stub })
	ecfg := engine.Config{
		Registry:       reg,
		Cache:          solver.NewCache(4, 64),
		DefaultSolver:  "stub",
		DefaultTimeout: 5 * time.Second,
		MaxTimeout:     10 * time.Second,
	}
	cfg := Config{Version: "test"}
	if mutate != nil {
		mutate(&ecfg, &cfg)
	}
	cfg.Engine = newTestEngine(t, ecfg)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func testInstance() *core.Instance {
	return core.NewInstance([]float64{0.3, 0.7}, []float64{0.5})
}

// TestNewRequiresEngine pins that a server cannot be built without the
// shared solve pipeline.
func TestNewRequiresEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without an Engine")
	}
}

func TestSolveCacheHitMiss(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	_, ts := newTestServer(t, stub, nil)

	var first, second SolveResponse
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Source != string(solver.SourceSolve) || first.Makespan <= 0 || first.Fingerprint == "" {
		t.Fatalf("first solve malformed: %+v", first)
	}

	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Source != string(solver.SourceCache) {
		t.Fatalf("repeat request source = %q, want cache", second.Source)
	}
	if second.Makespan != first.Makespan || second.Fingerprint != first.Fingerprint {
		t.Fatalf("cached response diverged: %+v vs %+v", first, second)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("solver invoked %d times for identical requests, want 1", got)
	}
}

func TestSolveSingleflightDedup(t *testing.T) {
	stub := &stubSolver{name: "stub", block: make(chan struct{})}
	_, ts := newTestServer(t, stub, nil)

	const n = 8
	sources := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance()})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("call %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var sr SolveResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Error(err)
				return
			}
			sources[i] = sr.Source
		}(i)
	}
	for stub.calls.Load() == 0 { // wait until the leader is inside Solve
		time.Sleep(time.Millisecond)
	}
	close(stub.block)
	wg.Wait()

	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("solver invoked %d times for %d concurrent identical requests, want 1", got, n)
	}
	solves := 0
	for _, src := range sources {
		if src == string(solver.SourceSolve) {
			solves++
		}
	}
	if solves != 1 {
		t.Fatalf("%d responses report a fresh solve, want exactly 1 (got %v)", solves, sources)
	}
}

func TestSolveDeadlinePropagation(t *testing.T) {
	stub := &stubSolver{name: "stub", block: make(chan struct{})} // never released
	_, ts := newTestServer(t, stub, nil)

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Instance: testInstance(), Timeout: "100ms"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s, want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not enforced: request took %s", elapsed)
	}
	if !stub.sawDeadline.Load() {
		t.Fatal("solver context carried no deadline")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("error body malformed: %s", body)
	}
}

func TestSolveRequestValidation(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	_, ts := newTestServer(t, stub, nil)
	cases := []SolveRequest{
		{}, // missing instance
		{Instance: testInstance(), Solver: "no-such"},   // unknown solver
		{Instance: testInstance(), Timeout: "-3s"},      // negative timeout
		{Instance: testInstance(), Timeout: "sideways"}, // unparsable timeout
		{Instance: core.NewInstance([]float64{1.5})},    // requirement > 1
	}
	for i, req := range cases {
		if resp, body := postJSON(t, ts.URL+"/v1/solve", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s), want 400", i, resp.StatusCode, body)
		}
	}
	if got := stub.calls.Load(); got != 0 {
		t.Fatalf("invalid requests reached the solver %d times", got)
	}
}

func TestBatchSolveRoundTrip(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	_, ts := newTestServer(t, stub, nil)

	insts := []*core.Instance{
		core.NewInstance([]float64{0.3, 0.7}),
		core.NewInstance([]float64{0.5}),
		core.NewInstance([]float64{0.9, 0.1}, []float64{0.2}),
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch-solve", BatchRequest{Instances: insts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Count != 3 || br.Solved != 3 || br.Failed != 0 || br.Cancelled != 0 {
		t.Fatalf("batch summary %+v, want 3 solved", br)
	}
	for i, res := range br.Results {
		if res.Index != i || res.Makespan <= 0 || res.Error != "" {
			t.Fatalf("result %d malformed: %+v", i, res)
		}
	}
}

func TestBatchSolveDeadlineMarksCancelled(t *testing.T) {
	stub := &stubSolver{name: "stub", block: make(chan struct{})} // never released
	_, ts := newTestServer(t, stub, func(ecfg *engine.Config, _ *Config) { ecfg.MaxConcurrent = 1 })

	insts := make([]*core.Instance, 4)
	for i := range insts {
		insts[i] = core.NewInstance([]float64{float64(i+1) / 10})
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch-solve",
		BatchRequest{Instances: insts, Timeout: "100ms"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Solved != 0 {
		t.Fatalf("blocked solver cannot have solved anything: %+v", br)
	}
	if br.Cancelled == 0 {
		t.Fatalf("expected some never-attempted instances marked cancelled: %+v", br)
	}
	if br.Failed+br.Cancelled != br.Count {
		t.Fatalf("accounting broken: %+v", br)
	}
	for _, res := range br.Results {
		if res.Cancelled && res.Error == "" {
			t.Fatalf("cancelled result lacks its context error: %+v", res)
		}
	}
}

// TestBatchSolveUsesCache checks the batch path shares the memo cache with
// the single-solve path: duplicates inside one batch and overlap with a
// prior /v1/solve all collapse into one underlying solve.
func TestBatchSolveUsesCache(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	_, ts := newTestServer(t, stub, nil)

	if resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance()}); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming solve: %d %s", resp.StatusCode, body)
	}
	insts := []*core.Instance{testInstance(), testInstance(), testInstance()}
	resp, body := postJSON(t, ts.URL+"/v1/batch-solve", BatchRequest{Instances: insts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Solved != 3 {
		t.Fatalf("batch summary %+v, want 3 solved", br)
	}
	if got := stub.calls.Load(); got != 1 {
		t.Fatalf("solver invoked %d times across solve+batch of identical instances, want 1", got)
	}
}

// TestSolveCachedScheduleForPermutedInstance asks for the schedule of a
// permuted-processor sibling of a cached instance and checks it is valid
// for the ordering the client actually submitted.
func TestSolveCachedScheduleForPermutedInstance(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	_, ts := newTestServer(t, stub, nil)

	orig := core.NewInstance([]float64{0.9, 0.9}, []float64{0.1})
	perm := core.NewInstance([]float64{0.1}, []float64{0.9, 0.9})
	if resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: orig}); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming solve: %d %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: perm, IncludeSchedule: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Source != string(solver.SourceCache) {
		t.Fatalf("source = %q, want cache", sr.Source)
	}
	res, err := core.Execute(perm, sr.Schedule)
	if err != nil {
		t.Fatalf("cached schedule invalid for the submitted processor order: %v", err)
	}
	if !res.Finished() {
		t.Fatal("cached schedule does not finish the submitted instance's jobs")
	}
	if res.Makespan() != sr.Makespan {
		t.Fatalf("schedule makespan %d, response claims %d", res.Makespan(), sr.Makespan)
	}
}

func TestBatchSolveRejectsOversizedBatch(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	_, ts := newTestServer(t, stub, func(_ *engine.Config, cfg *Config) { cfg.MaxBatch = 2 })
	insts := []*core.Instance{testInstance(), testInstance(), testInstance()}
	if resp, body := postJSON(t, ts.URL+"/v1/batch-solve", BatchRequest{Instances: insts}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
	}
}

func TestSolversEndpoint(t *testing.T) {
	_, ts := newTestServer(t, &stubSolver{name: "stub"}, nil)
	resp, err := http.Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SolversResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(sr.Solvers) != 1 || sr.Solvers[0] != "stub" || sr.Default != "stub" {
		t.Fatalf("solvers response malformed: %d %+v", resp.StatusCode, sr)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	_, ts := newTestServer(t, &stubSolver{name: "stub"}, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.Version != "test" {
		t.Fatalf("healthz malformed: %d %+v", resp.StatusCode, hr)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	_, ts := newTestServer(t, stub, nil)

	// One miss, one hit, then scrape.
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance()}); resp.StatusCode != 200 {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"crsharing_requests_solve_total 2",
		"crsharing_solves_total 1",
		"crsharing_cache_served_total 1",
		"crsharing_cache_hits_total 1",
		"crsharing_cache_misses_total 1",
		"crsharing_cache_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestIncludeSchedule(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	_, ts := newTestServer(t, stub, nil)
	resp, body := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Instance: testInstance(), IncludeSchedule: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Schedule == nil || sr.Schedule.Steps() == 0 {
		t.Fatalf("include_schedule did not return the schedule: %s", body)
	}
	// Sanity: the schedule round-trips and executes against the instance.
	if _, err := core.Execute(testInstance(), sr.Schedule); err != nil {
		t.Fatalf("returned schedule does not execute: %v", err)
	}
}
