package harness

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crsharing/internal/engine"
	"crsharing/internal/service"
)

// testOptions are crserved's defaults with the fast deterministic
// greedy-balance solver, so driver tests stay quick under -race, and a
// smaller pool with shorter job budgets.
func testOptions() service.Options {
	o := service.DefaultOptions()
	o.DefaultSolver = "greedy-balance"
	o.MaxConcurrent = 32
	o.Workers = 2
	o.JobTimeout = 10 * time.Second
	o.JobMaxTimeout = 30 * time.Second
	return o
}

// serve builds a backend from o on a loopback listener and closes it when
// the test ends.
func serve(t *testing.T, o service.Options) *service.Backend {
	t.Helper()
	backend := listenAndBuild(t, o)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// A connection the driver dialled but never sent a request on would
		// hold http.Server.Shutdown for five seconds.
		http.DefaultClient.CloseIdleConnections()
		if err := backend.Close(ctx); err != nil {
			t.Errorf("backend close: %v", err)
		}
	})
	return backend
}

// TestDriverEndToEnd replays a short mixed load against the in-process backend
// and asserts the acceptance contract: every class sees traffic, every
// schedule revalidates with zero violations, and the duplicate-heavy corpus
// produces cache hits.
func TestDriverEndToEnd(t *testing.T) {
	backend := serve(t, testOptions())
	d, err := NewDriver(Config{
		BaseURL:  backend.URL,
		Corpus:   BuildCorpus(1),
		Mix:      Mix{Solve: 6, Batch: 2, Jobs: 2},
		Rate:     400,
		Duration: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if rep.Requests == 0 {
		t.Fatal("driver completed no requests")
	}
	if rep.ViolationCount != 0 || len(rep.Violations) != 0 {
		t.Fatalf("invariant violations (%d): %v", rep.ViolationCount, rep.Violations)
	}
	if rep.Validated == 0 {
		t.Fatal("oracle validated nothing")
	}
	for _, class := range []string{ClassSolve, ClassBatch, ClassJobs} {
		cs := rep.Classes[class]
		if cs == nil || cs.Requests == 0 {
			t.Errorf("class %s saw no traffic: %+v", class, cs)
			continue
		}
		if cs.Errors != 0 {
			t.Errorf("class %s reported errors: %+v (samples %v)", class, cs, cs.ErrorSamples)
		}
		if cs.Latency.Count == 0 || cs.Latency.P50MS < 0 || cs.Latency.P99MS < cs.Latency.P50MS {
			t.Errorf("class %s latency summary is inconsistent: %+v", class, cs.Latency)
		}
		// Every class aggregates the engine telemetry of its solves, so load
		// runs double as solver-behaviour regressions.
		total := 0
		for _, n := range cs.Telemetry.Sources {
			total += n
		}
		if total == 0 {
			t.Errorf("class %s aggregated no telemetry sources: %+v", class, cs.Telemetry)
		}
	}
	// The duplicate-heavy corpus must surface non-solve sources somewhere.
	served := 0
	for _, class := range []string{ClassSolve, ClassBatch, ClassJobs} {
		cs := rep.Classes[class]
		served += cs.Telemetry.Sources["cache"] + cs.Telemetry.Sources["coalesced"]
	}
	if served == 0 {
		t.Error("per-class telemetry recorded no cache-served results")
	}
	if rep.Cache.CacheServed == 0 {
		t.Error("replay of a duplicate-heavy corpus produced no cache hits")
	}
	if rep.Cache.HitRatio <= 0 || rep.Cache.HitRatio > 1 {
		t.Errorf("cache hit ratio %v outside (0, 1]", rep.Cache.HitRatio)
	}
	if rep.Throughput <= 0 {
		t.Errorf("throughput %v not positive", rep.Throughput)
	}
	if txt := rep.Text(); txt == "" {
		t.Error("empty text report")
	}
	if data, err := rep.JSON(); err != nil || len(data) == 0 {
		t.Errorf("JSON report: %v", err)
	}
}

// TestDriverCountsServerErrors drives a server whose solve endpoint always
// fails and checks errors are attributed, not dropped.
func TestDriverCountsServerErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	d, err := NewDriver(Config{
		BaseURL:  ts.URL,
		Corpus:   BuildCorpus(1),
		Mix:      Mix{Solve: 1},
		Rate:     300,
		Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cs := rep.Classes[ClassSolve]
	if cs.Requests == 0 || cs.Errors != cs.Requests {
		t.Fatalf("want every request counted as an error, got %+v", cs)
	}
	if len(cs.ErrorSamples) == 0 {
		t.Fatal("no error samples recorded")
	}
}

// TestDriverKeepsRateUnderStarvation starves the arrival loop of CPU — one
// P shared with four spinning goroutines — and checks the open-loop
// generator still issues every arrival of its schedule (rate x duration),
// catching up when late instead of dropping the arrivals it missed.
func TestDriverKeepsRateUnderStarvation(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"stub"}`, http.StatusInternalServerError)
	})
	mux.HandleFunc("GET /metrics", func(http.ResponseWriter, *http.Request) {})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	d, err := NewDriver(Config{
		BaseURL:  ts.URL,
		Corpus:   BuildCorpus(1),
		Mix:      Mix{Solve: 1},
		Rate:     500,
		Duration: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stop atomic.Bool
	var spinners sync.WaitGroup
	for i := 0; i < 4; i++ {
		spinners.Add(1)
		go func() {
			defer spinners.Done()
			for !stop.Load() {
			}
		}()
	}
	rep, err := d.Run(context.Background())
	stop.Store(true)
	spinners.Wait()
	if err != nil {
		t.Fatal(err)
	}
	const want = 200 // 500/s for 400ms
	if got := rep.Classes[ClassSolve].Requests + rep.Shed; got != want {
		t.Fatalf("issued %d arrivals (%d completed, %d shed), want %d", got, rep.Classes[ClassSolve].Requests, rep.Shed, want)
	}
}

// TestDriverPerTenantAccounting runs a two-tenant load and checks the
// per-tenant slices are complete: every request lands in exactly one tenant
// bucket, so the tenant sums reproduce the global and per-class totals.
func TestDriverPerTenantAccounting(t *testing.T) {
	o := testOptions()
	o.Tenants = map[string]engine.TenantConfig{
		"gold": {Weight: 3},
		"free": {Weight: 1},
	}
	backend := serve(t, o)
	d, err := NewDriver(Config{
		BaseURL: backend.URL,
		Corpus:  BuildCorpus(1),
		Mix:     Mix{Solve: 6, Batch: 2, Jobs: 2},
		Tenants: []TenantLoad{
			{Name: "gold", Weight: 3, Rate: 250},
			{Name: "free", Weight: 1, Rate: 150},
		},
		Duration: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(rep.Tenants) != 2 || rep.Tenants["gold"] == nil || rep.Tenants["free"] == nil {
		t.Fatalf("tenant buckets wrong: %v", rep.Tenants)
	}
	var sum Stats
	for name, ts := range rep.Tenants {
		if ts.Requests == 0 {
			t.Errorf("tenant %s saw no traffic", name)
		}
		if ts.Latency.Count == 0 {
			t.Errorf("tenant %s has no latency summary", name)
		}
		sum.Requests += ts.Requests
		sum.Errors += ts.Errors
		sum.Shed += ts.Shed
		sum.Cancelled += ts.Cancelled
		sum.CacheServed += ts.CacheServed
	}
	var classes Stats
	for _, cs := range rep.Classes {
		classes.Requests += cs.Requests
		classes.Errors += cs.Errors
		classes.Shed += cs.Shed
		classes.Cancelled += cs.Cancelled
		classes.CacheServed += cs.CacheServed
	}
	if sum.Requests != rep.Requests || sum.Requests != classes.Requests {
		t.Errorf("tenant requests %d, global %d, classes %d — must all agree",
			sum.Requests, rep.Requests, classes.Requests)
	}
	if sum.Errors != classes.Errors {
		t.Errorf("tenant errors %d != class errors %d", sum.Errors, classes.Errors)
	}
	if sum.Shed != rep.ServerShed || sum.Shed != classes.Shed {
		t.Errorf("tenant sheds %d, server-shed %d, class sheds %d — must all agree",
			sum.Shed, rep.ServerShed, classes.Shed)
	}
	if sum.Cancelled != classes.Cancelled {
		t.Errorf("tenant cancelled %d != class cancelled %d", sum.Cancelled, classes.Cancelled)
	}
	if sum.CacheServed != classes.CacheServed {
		t.Errorf("tenant cache-served %d != class cache-served %d", sum.CacheServed, classes.CacheServed)
	}
	if rep.ViolationCount != 0 {
		t.Errorf("invariant violations: %v", rep.Violations)
	}
	// Both tenants replay the shared duplicate-heavy corpus, so their solves
	// must fold engine telemetry like the class aggregates do.
	for name, ts := range rep.Tenants {
		total := 0
		for _, n := range ts.Telemetry.Sources {
			total += n
		}
		if total == 0 {
			t.Errorf("tenant %s aggregated no telemetry sources: %+v", name, ts.Telemetry)
		}
	}
	if txt := rep.Text(); !strings.Contains(txt, "gold") || !strings.Contains(txt, "free") {
		t.Error("text report omits the per-tenant block")
	}
}

func TestParseTenantLoads(t *testing.T) {
	got, err := ParseTenantLoads("gold:3:80, free:1:40 ,plain")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantLoad{
		{Name: "gold", Weight: 3, Rate: 80},
		{Name: "free", Weight: 1, Rate: 40},
		{Name: "plain", Weight: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("ParseTenantLoads = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", ":3", "a:0", "a:x", "a:1:0", "a:1:x", "a:1:2:3", "dup:1,dup:2"} {
		if _, err := ParseTenantLoads(bad); err == nil {
			t.Fatalf("ParseTenantLoads(%q) accepted", bad)
		}
	}
}

func TestParseMix(t *testing.T) {
	cases := []struct {
		in      string
		want    Mix
		wantErr bool
	}{
		{"", DefaultMix(), false},
		{"solve=8,batch=1,jobs=1", Mix{Solve: 8, Batch: 1, Jobs: 1}, false},
		{"solve=1", Mix{Solve: 1}, false},
		{" jobs=3 , solve=2 ", Mix{Solve: 2, Jobs: 3}, false},
		{"solve=0,batch=0,jobs=0", Mix{}, true},
		{"warp=1", Mix{}, true},
		{"solve=-1", Mix{}, true},
		{"solve", Mix{}, true},
	}
	for _, tc := range cases {
		got, err := ParseMix(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseMix(%q) accepted", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseMix(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseMix(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestScrapeMetrics(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("# HELP x y\n# TYPE x counter\nx 3\nlabelled{a=\"b\"} 9\nmalformed\ny 1.5\n"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	snap, err := ScrapeMetrics(ts.Client(), ts.URL+"/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if snap["x"] != 3 || snap["y"] != 1.5 {
		t.Fatalf("snapshot %v", snap)
	}
	if _, ok := snap[`labelled{a="b"}`]; ok {
		t.Fatal("labelled sample should be skipped")
	}

	delta := MetricsSnapshot{"x": 1}.Delta(MetricsSnapshot{"x": 4, "z": 2})
	if delta["x"] != 3 || delta["z"] != 2 {
		t.Fatalf("delta %v", delta)
	}
	acc := MetricsSnapshot{
		"crsharing_solves_total":       2,
		"crsharing_cache_served_total": 6,
	}.Cache()
	if acc.HitRatio != 0.75 || acc.FreshSolves != 2 || acc.CacheServed != 6 {
		t.Fatalf("cache accounting %+v", acc)
	}
}

// TestDriverOnlineClass drives the online class against the exact kernel:
// each chain arrival sends the chain's latest answer as warm_start, so some
// fresh solves must report a warm start, and every schedule must revalidate.
// Replaying a recording of the run, whose online entries carry their chain,
// must warm-start solves the same way; a recording without chains, as
// recordings predating them decode, takes the no-hint path and must
// revalidate just as cleanly. The low rate leaves each answer time to come
// back before the chain's next arrival, even under -race on a loaded host;
// corpus seed 7 starts chains on instances where greedy is not optimal, so
// an adapted hint beats the kernel's own seed.
func TestDriverOnlineClass(t *testing.T) {
	backend := serve(t, testOptions())
	d, err := NewDriver(Config{
		BaseURL:  backend.URL,
		Corpus:   BuildCorpus(7),
		Mix:      Mix{Online: 1},
		Solver:   "branch-and-bound",
		Rate:     10,
		Duration: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	online := rep.Classes[ClassOnline]
	if online.Requests == 0 {
		t.Fatal("online class saw no traffic")
	}
	if rep.WarmStarted < 1 {
		t.Fatalf("no fresh solve accepted a chain hint (%d online requests)", online.Requests)
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("invariant violations (%d): %v", rep.ViolationCount, rep.Violations)
	}

	recording := d.Recording()
	unchained := &Recording{Seed: recording.Seed, Entries: append([]Entry(nil), recording.Entries...)}
	for i := range unchained.Entries {
		unchained.Entries[i].Chain = 0
	}
	for _, tc := range []struct {
		name      string
		recording *Recording
		speed     float64
		warm      bool
	}{
		// At the recorded speed, so each answer has as long to come back
		// before its chain's next arrival as it had in the live run.
		{"chained", recording, 1, true},
		{"unchained", unchained, 40, false},
	} {
		// A fresh backend, so the replay solves rather than hits the cache.
		replay, err := NewDriver(Config{
			BaseURL:     serve(t, testOptions()).URL,
			Solver:      "branch-and-bound",
			Replay:      tc.recording,
			ReplaySpeed: tc.speed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rrep, err := replay.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rrep.Replayed || rrep.Requests != rep.Requests {
			t.Fatalf("%s replay issued %d requests (replayed=%v), want %d", tc.name, rrep.Requests, rrep.Replayed, rep.Requests)
		}
		if rrep.ViolationCount != 0 {
			t.Fatalf("%s replay invariant violations (%d): %v", tc.name, rrep.ViolationCount, rrep.Violations)
		}
		if tc.warm && rrep.WarmStarted < 1 {
			t.Fatalf("chained replay warm-started no solve (%d requests)", rrep.Requests)
		}
		if !tc.warm && rrep.WarmStarted != 0 {
			t.Fatalf("unchained replay warm-started %d solves, but its entries carry no chain", rrep.WarmStarted)
		}
	}
}
