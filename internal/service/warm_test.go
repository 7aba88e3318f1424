package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/gen"
	"crsharing/internal/solver"
)

// TestSolveWarmStartRoundTrip drives the request-supplied warm-start hint
// over HTTP: solve a base instance with the exact kernel, then re-submit a
// one-nudge mutant with the base's schedule as the hint. The fresh solve
// must accept it (telemetry warm_start="request", seed_makespan set) and the
// answer must match a cold solve of the same mutant.
func TestSolveWarmStartRoundTrip(t *testing.T) {
	eng := newTestEngine(t, engine.Config{
		Registry:       solver.Default(),
		Cache:          solver.NewCache(4, 64),
		DefaultSolver:  "branch-and-bound",
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     20 * time.Second,
	})
	srv, err := New(Config{Engine: eng, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	base := gen.GreedyWorstCase(4, 3, 0.01)
	var seeded SolveResponse
	resp, body := postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Instance: base, IncludeSchedule: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base solve status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &seeded); err != nil {
		t.Fatal(err)
	}
	if seeded.Schedule == nil {
		t.Fatalf("base solve returned no schedule: %s", body)
	}

	// One requirement nudged down: the base's optimal schedule still
	// finishes the mutant at the optimum, below the greedy seed.
	mutant := base.Clone()
	mutant.Procs[0][0].Req -= 1e-4

	var warm SolveResponse
	resp, body = postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Instance: mutant, WarmStart: seeded.Schedule})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Source != string(solver.SourceSolve) {
		t.Fatalf("warm request source %q, want a fresh solve", warm.Source)
	}
	if warm.Telemetry == nil || warm.Telemetry.WarmStart != "request" {
		t.Fatalf("telemetry does not credit the request hint: %s", body)
	}
	if warm.Telemetry.SeedMakespan <= 0 {
		t.Fatalf("seed_makespan missing: %s", body)
	}
	if warm.Makespan != seeded.Makespan {
		t.Fatalf("warm makespan %d, want the chain optimum %d", warm.Makespan, seeded.Makespan)
	}

	// A garbage hint must cost nothing: same instance family, same answer,
	// no warm-start credit.
	junk := base.Clone()
	junk.Procs[1][0].Req -= 1e-4
	var coldish SolveResponse
	resp, body = postJSON(t, ts.URL+"/v1/solve",
		SolveRequest{Instance: junk, WarmStart: core.NewSchedule(1, 2)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("junk-hint solve status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &coldish); err != nil {
		t.Fatal(err)
	}
	if coldish.Makespan != seeded.Makespan {
		t.Fatalf("junk hint changed the makespan: %d vs %d", coldish.Makespan, seeded.Makespan)
	}
}
