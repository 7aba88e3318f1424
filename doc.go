// Package crsharing is the root of a from-scratch Go reproduction of
// "Scheduling Shared Continuous Resources on Many-Cores" (Althaus, Brinkmann,
// Kling, Meyer auf der Heide, Nagel, Riechers, Sgall, Süß; SPAA 2014 /
// Journal of Scheduling).
//
// The implementation lives under internal/ (model, algorithms, hypergraph
// analysis, generators, many-core simulator, experiment harness), the
// command-line tools under cmd/, and runnable examples under examples/. See
// README.md for usage and the HTTP API reference, and ARCHITECTURE.md for
// the layer diagram, data-flow walkthroughs and concurrency invariants.
//
// # Solver registry and concurrency layer
//
// Every scheduling algorithm is registered in internal/solver behind one
// context-aware interface:
//
//	Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, Stats, error)
//
// The packages under internal/algo stay synchronous, single-purpose kernels;
// internal/solver adapts them and layers the concurrency on top:
//
//   - Registry: name -> constructor, used by cmd/crsched, cmd/crexp and the
//     experiment harness, so every entry point supports deadlines and
//     cancellation uniformly.
//   - Portfolio: races a set of solvers on one instance on a goroutine per
//     member and returns the best schedule found (lowest makespan, ties by
//     less waste, then member order). It stops the members after a
//     certified answer — zero waste at the lower bound or at an exact
//     member's optimum — since none of them can win. The exact-only variant
//     cancels the losers as soon as one exact member finishes.
//
// Batches are sharded across a worker pool by engine.SolveEach (below).
//
// # Solve pipeline (internal/engine)
//
// Every surface that wants an instance solved — the HTTP handlers, the
// batch fan-out, the asynchronous job workers, the CLIs and the load
// harness — submits an engine.Request to one shared engine.Engine, which
// owns the request lifecycle end to end: solver resolution, deadline
// clamping against the caller's limits, memo-cache routing, admission
// through a global weighted-fair scheduler (the one concurrency budget of
// the process), incumbent-observer attachment, and telemetry. Each solve
// yields a structured engine.Telemetry (cache source, elapsed and
// admission-queue time, search nodes and incumbents counted by the kernels
// through internal/progress, the memoised lower bound and which bound it
// is, ratio, steps, waste, properties) that is surfaced uniformly in solve
// responses, job records, SSE events, /metrics histograms and the crload
// report.
//
// # Serving layer
//
// internal/service and cmd/crserved turn the engine into a long-running
// HTTP service. Instances are identified by a canonical fingerprint
// (core.Fingerprint: an order-normalized hash of the processor and job
// data, so permuting identical processors maps to the same key) and
// evaluations are memoised in a sharded LRU cache (solver.Cache) with
// singleflight deduplication: any number of concurrent identical requests
// trigger exactly one solve, and repeats are replayed from memory.
// Endpoints cover single solves, batch solves, solver listing, a liveness
// probe and Prometheus-format metrics; every solve runs under a
// per-request deadline and the process drains gracefully on
// SIGINT/SIGTERM.
//
// Solves too heavy for any HTTP deadline run asynchronously through
// internal/jobs: a bounded queue drained by a worker pool whose solves go
// through the same shared engine (same admission budget, same cache), job
// records that move through pending -> running -> done/failed/cancelled,
// server-sent-event streaming of every improving incumbent (reported by
// the kernels through the internal/progress hook), and an optional on-disk
// store that serves completed schedules across restarts without
// re-solving.
//
// # Fleet tier
//
// internal/router and cmd/crrouter scale the serving layer across several
// backends without giving up the memo cache: instance fingerprints are
// consistent-hashed to one owning backend (virtual-node hash ring), so the
// fleet's caches partition the fingerprint space and behave as one cache.
// Membership is health-probed with ejection and re-admission, a draining
// backend keeps answering peer cache fills (the service layer's
// X-CRFleet-Owner / X-CRFleet-Fill headers) while new keys route to its
// successor, and batches are split by owner and re-merged in order. See
// ARCHITECTURE.md ("Fleet tier") for the design and README.md for the
// crrouter flag table and the crload -addrs fleet-drive mode.
//
// # End-to-end harness
//
// internal/harness and cmd/crload close the loop over the whole stack: a
// deterministic corpus builder expands one seed into named instance families
// (including processor-permuted duplicates that stress the cache's
// fingerprint/remap path), an open-loop replay driver fires a weighted mix
// of sync, batch and async-job traffic at the HTTP layer, and an invariant
// oracle re-executes every returned schedule against the paper's property
// checkers (core.CheckProperties, Propositions 1-2), failing loudly on any
// violation. A golden-corpus suite under internal/harness/testdata pins
// every deterministic solver's makespan and waste inside `go test ./...`.
//
// The hottest exact kernel, branch-and-bound, is one serial search on pooled
// scratch that allocates nothing per node, polls its context and returns
// promptly on cancellation; it is deterministic, so the same instance always
// gets the same schedule.
//
// The root package itself only carries this documentation and the benchmark
// suite (bench_test.go) that regenerates every figure-level experiment under
// `go test -bench`.
package crsharing

// Version identifies the reproduction release.
const Version = "1.0.0"
