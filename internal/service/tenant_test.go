package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/solver"
)

// postJSONWith is postJSON plus request headers (tenant identity lives in
// headers, not the body).
func postJSONWith(t *testing.T, url string, headers map[string]string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestTenantIdentityExtraction covers the resolution order: X-Tenant header,
// then API key (when keys are configured), then the anonymous default — and
// the rejection of malformed names and unknown keys.
func TestTenantIdentityExtraction(t *testing.T) {
	stub := &stubSolver{name: "stub"}
	srv, ts := newTestServer(t, stub, func(_ *engine.Config, cfg *Config) {
		cfg.APIKeys = map[string]string{"sekrit": "gold"}
	})

	cases := []struct {
		name    string
		headers map[string]string
		status  int
		tenant  string // expected per-tenant accounting key, "" = none
	}{
		{"anonymous", nil, http.StatusOK, engine.DefaultTenant},
		{"header", map[string]string{TenantHeader: "alpha"}, http.StatusOK, "alpha"},
		{"api key", map[string]string{APIKeyHeader: "sekrit"}, http.StatusOK, "gold"},
		{"bearer", map[string]string{"Authorization": "Bearer sekrit"}, http.StatusOK, "gold"},
		{"header wins over key", map[string]string{TenantHeader: "beta", APIKeyHeader: "sekrit"}, http.StatusOK, "beta"},
		{"bad name", map[string]string{TenantHeader: "no spaces allowed"}, http.StatusBadRequest, ""},
		{"unknown key", map[string]string{APIKeyHeader: "wrong"}, http.StatusUnauthorized, ""},
	}
	for _, tc := range cases {
		resp, body := postJSONWith(t, ts.URL+"/v1/solve", tc.headers, SolveRequest{Instance: testInstance()})
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		if tc.tenant != "" {
			if _, ok := srv.Engine().Snapshot().Tenants[tc.tenant]; !ok {
				t.Fatalf("%s: tenant %q missing from engine accounting", tc.name, tc.tenant)
			}
		}
	}
	// With no APIKeys configured, keys are ignored rather than rejected.
	_, ts2 := newTestServer(t, &stubSolver{name: "stub"}, nil)
	if resp, body := postJSONWith(t, ts2.URL+"/v1/solve", map[string]string{APIKeyHeader: "whatever"}, SolveRequest{Instance: testInstance()}); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyless server rejected an ignored key: %d (%s)", resp.StatusCode, body)
	}
}

func TestParseAPIKeys(t *testing.T) {
	got, err := ParseAPIKeys("sekrit=gold, other=free ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["sekrit"] != "gold" || got["other"] != "free" {
		t.Fatalf("ParseAPIKeys = %v", got)
	}
	for _, bad := range []string{"", "nokey", "=tenant", "k=bad name", "k=a,k=b"} {
		if _, err := ParseAPIKeys(bad); err == nil {
			t.Fatalf("ParseAPIKeys(%q) accepted", bad)
		}
	}
}

// shedServer builds a server whose "busy" tenant has a one-deep queue over a
// single admission slot, occupies the slot with a blocked solve and fills the
// queue, so the next "busy" request must shed. Returns the teardown that
// unblocks the solver.
func shedServer(t *testing.T) (*Server, string, func()) {
	t.Helper()
	stub := &stubSolver{name: "stub", block: make(chan struct{})}
	srv, ts := newTestServer(t, stub, func(ecfg *engine.Config, _ *Config) {
		ecfg.MaxConcurrent = 1
		ecfg.Tenants = map[string]engine.TenantConfig{"busy": {MaxQueued: 1}}
		ecfg.ShedRetryAfter = 2 * time.Second
	})
	insts := []*core.Instance{
		core.NewInstance([]float64{0.2, 0.4}),
		core.NewInstance([]float64{0.3, 0.5}),
	}
	var once sync.Once
	release := func() { once.Do(func() { close(stub.block) }) }
	for i, inst := range insts {
		go func(inst *core.Instance) {
			postJSONWith(t, ts.URL+"/v1/solve", map[string]string{TenantHeader: "busy"}, SolveRequest{Instance: inst, Timeout: "8s"})
		}(inst)
		deadline := time.Now().Add(5 * time.Second)
		for {
			snap := srv.Engine().Snapshot()
			if (i == 0 && snap.Inflight > 0) || (i == 1 && snap.Waiting > 0) {
				break
			}
			if time.Now().After(deadline) {
				release()
				t.Fatalf("request %d never reached the engine", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return srv, ts.URL, release
}

// TestSolveShedReturns429 checks the HTTP mapping of a quota shed: status
// 429, a Retry-After header carrying the configured back-off, and the shed
// counted apart from errors.
func TestSolveShedReturns429(t *testing.T) {
	srv, url, release := shedServer(t)
	defer release()

	resp, body := postJSONWith(t, url+"/v1/solve", map[string]string{TenantHeader: "busy"},
		SolveRequest{Instance: core.NewInstance([]float64{0.6, 0.8})})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra != 2 {
		t.Fatalf("Retry-After = %q, want the configured 2 seconds", resp.Header.Get("Retry-After"))
	}
	var apiErr ErrorResponse
	if json.Unmarshal(body, &apiErr) != nil || apiErr.Error == "" {
		t.Fatalf("429 body is not an ErrorResponse: %s", body)
	}
	snap := srv.Engine().Snapshot()
	if snap.Shed != 1 {
		t.Fatalf("engine shed counter = %d, want 1", snap.Shed)
	}
	if ts := snap.Tenants["busy"]; ts.Shed != 1 || ts.Errors != 0 {
		t.Fatalf("busy tenant counters: %+v, want shed=1 errors=0", ts)
	}
	if srv.metrics.shedTotal.Load() != 1 {
		t.Fatalf("server shed counter = %d, want 1", srv.metrics.shedTotal.Load())
	}
	// An unrelated tenant is not refused: it queues (and eventually runs once
	// the blocked solve is released).
	otherDone := make(chan int, 1)
	go func() {
		resp, _ := postJSONWith(t, url+"/v1/solve", map[string]string{TenantHeader: "idle"},
			SolveRequest{Instance: core.NewInstance([]float64{0.1, 0.9}), Timeout: "8s"})
		otherDone <- resp.StatusCode
	}()
	time.Sleep(20 * time.Millisecond)
	release()
	if status := <-otherDone; status != http.StatusOK {
		t.Fatalf("idle tenant got %d during busy's shed, want 200", status)
	}
}

// TestBatchFullyShedReturns429 checks the batch mapping: when every instance
// of a batch is refused over quota the response is 429 with Retry-After and
// the per-result shed flags set.
func TestBatchFullyShedReturns429(t *testing.T) {
	_, url, release := shedServer(t)
	defer release()

	resp, body := postJSONWith(t, url+"/v1/batch-solve", map[string]string{TenantHeader: "busy"}, BatchRequest{
		Instances: []*core.Instance{
			core.NewInstance([]float64{0.15, 0.35}),
			core.NewInstance([]float64{0.25, 0.45}),
		},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatalf("batch 429 body: %v (%s)", err, body)
	}
	if batch.Shed != 2 || batch.Count != 2 {
		t.Fatalf("batch shed accounting: %+v", batch)
	}
	for _, res := range batch.Results {
		if !res.Shed || res.Error == "" {
			t.Fatalf("shed result not flagged: %+v", res)
		}
	}
}

// TestJobSubmitShedReturns429 checks the async surface: a tenant whose
// pending-job quota is exhausted gets 429 + Retry-After on submit.
func TestJobSubmitShedReturns429(t *testing.T) {
	stub := &stubSolver{name: "stub", block: make(chan struct{})}
	defer close(stub.block)
	reg := solver.NewRegistry()
	reg.Register("stub", func() solver.Solver { return stub })
	eng := newTestEngine(t, engine.Config{
		Registry:       reg,
		Cache:          solver.NewCache(4, 64),
		DefaultSolver:  "stub",
		Tenants:        map[string]engine.TenantConfig{"capped": {MaxQueued: 2}},
		ShedRetryAfter: 2 * time.Second,
	})
	manager, err := jobs.New(jobs.Config{Engine: eng, Workers: 1, QueueDepth: 8})
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

	// The first submission is picked up by the single worker (where it
	// blocks inside the solver) so it no longer counts as pending; the next
	// two fill the tenant's pending quota of 2.
	submit := func(i int) (*http.Response, []byte) {
		inst := core.NewInstance([]float64{float64(i+1) / 10, 0.5})
		return postJSONWith(t, ts.URL+"/v1/jobs", map[string]string{TenantHeader: "capped"}, JobRequest{Instance: inst})
	}
	if resp, body := submit(0); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d (%s)", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for manager.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no job started running")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 2; i++ {
		if resp, body := submit(i); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, body := submit(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want the configured 2 seconds", resp.Header.Get("Retry-After"))
	}
}
