package service

import (
	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
)

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Solver selects a registry entry; empty uses the server's default.
	Solver string `json:"solver,omitempty"`
	// Instance is the CRSharing instance to solve.
	Instance *core.Instance `json:"instance"`
	// Timeout bounds this solve, as a Go duration string ("500ms", "30s").
	// Empty uses the server default; values above the server maximum are
	// clamped.
	Timeout string `json:"timeout,omitempty"`
	// IncludeSchedule asks for the full per-step resource assignment in the
	// response; it is omitted by default because schedules are large.
	IncludeSchedule bool `json:"include_schedule,omitempty"`
	// WarmStart is an optional hint: a schedule solved for a near-identical
	// instance (typically the previous step of a mutation chain). The engine
	// adapts it to this request's instance, and the kernel validates it and
	// uses it only to seed its initial incumbent, so a stale or infeasible
	// hint costs one validation and changes nothing. An accepted hint is reported in
	// telemetry as warm_start="request" with its seed_makespan.
	WarmStart *core.Schedule `json:"warm_start,omitempty"`
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	// Solver is the registry name the request resolved to.
	Solver string `json:"solver"`
	// Algorithm is the algorithm that produced the schedule (for a portfolio
	// the winning member, e.g. "greedy-balance (via portfolio)").
	Algorithm string `json:"algorithm"`
	// Source reports how the result was obtained: "solve" (fresh solve),
	// "cache" (memo hit) or "coalesced" (joined an identical in-flight
	// solve).
	Source string `json:"source"`
	// Fingerprint is the canonical instance fingerprint, the cache key.
	Fingerprint string `json:"fingerprint"`
	Makespan    int    `json:"makespan"`
	LowerBound  int    `json:"lower_bound"`
	// Ratio is makespan divided by the best lower bound.
	Ratio  float64 `json:"ratio"`
	Wasted float64 `json:"wasted"`
	// Properties lists the Section-4 structural properties of the schedule.
	Properties string `json:"properties"`
	// ElapsedMS is the wall-clock of the solve that produced this result in
	// milliseconds. For cache and coalesced responses it replays the
	// original solve's duration — consult Source for this request's own
	// cost.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Telemetry is the engine's structured account of this solve: search
	// nodes and incumbents, admission queueing, the lower bound that anchors
	// Ratio, and the schedule shape.
	Telemetry *engine.Telemetry `json:"telemetry,omitempty"`
	// Schedule is present only when the request set include_schedule.
	Schedule *core.Schedule `json:"schedule,omitempty"`
}

// BatchRequest is the body of POST /v1/batch-solve.
type BatchRequest struct {
	Solver    string           `json:"solver,omitempty"`
	Instances []*core.Instance `json:"instances"`
	// Timeout bounds the whole batch, not each instance.
	Timeout string `json:"timeout,omitempty"`
}

// BatchResult is the outcome of one instance of a batch.
type BatchResult struct {
	Index     int     `json:"index"`
	Makespan  int     `json:"makespan,omitempty"`
	Wasted    float64 `json:"wasted,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"`
	// Source reports how this instance's result was obtained ("solve",
	// "cache" or "coalesced"), like the single-solve response does.
	Source    string  `json:"source,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Telemetry is the engine's structured account of this instance's solve.
	Telemetry *engine.Telemetry `json:"telemetry,omitempty"`
	// Error is set for failed instances; Cancelled additionally marks
	// instances that were never attempted because the batch deadline had
	// already expired, and Shed instances that were refused over the
	// tenant's admission quota (retry later; they did not fail).
	Error     string `json:"error,omitempty"`
	Cancelled bool   `json:"cancelled,omitempty"`
	Shed      bool   `json:"shed,omitempty"`
}

// BatchResponse is the body of a POST /v1/batch-solve response. It is
// returned with status 200 even when individual instances failed; the
// per-instance errors are in Results.
// A fully shed batch (every instance refused over quota) is answered with
// 429 and a Retry-After header instead of 200.
type BatchResponse struct {
	Solver    string        `json:"solver"`
	Count     int           `json:"count"`
	Solved    int           `json:"solved"`
	Failed    int           `json:"failed"`
	Cancelled int           `json:"cancelled"`
	Shed      int           `json:"shed,omitempty"`
	Results   []BatchResult `json:"results"`
}

// SolversResponse is the body of GET /v1/solvers.
type SolversResponse struct {
	Solvers []string `json:"solvers"`
	Default string   `json:"default"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// JobRequest is the body of POST /v1/jobs.
type JobRequest struct {
	// Solver selects a registry entry; empty uses the server's default.
	Solver string `json:"solver,omitempty"`
	// Instance is the CRSharing instance to solve.
	Instance *core.Instance `json:"instance"`
	// Timeout bounds the solve once it starts running (queueing time does
	// not count), as a Go duration string. Unlike the synchronous endpoints
	// it is clamped to the job manager's maximum, not the HTTP one — long
	// solves are what the job API is for.
	Timeout string `json:"timeout,omitempty"`
}

// Job responses (POST /v1/jobs, GET /v1/jobs/{id}, DELETE /v1/jobs/{id})
// are jobs.Snapshot values serialised directly; JobListResponse is the body
// of GET /v1/jobs.
type JobListResponse struct {
	Count int             `json:"count"`
	Jobs  []jobs.Snapshot `json:"jobs"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
