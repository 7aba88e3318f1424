// Package harness is the end-to-end scenario harness of the repository: it
// turns the generators of internal/gen, the property checkers of
// internal/core and the HTTP layer of internal/service into one repeatable
// experiment that exercises the full stack under realistic mixed load.
//
// It has three cooperating pieces:
//
//   - Corpus (corpus.go): a deterministic builder that expands a single seed
//     into named instance families — tiny instances the exact solvers finish
//     instantly, wide many-processor instances, resource-tight instances
//     whose requirements crowd the unit resource, processor-permuted
//     duplicates that stress the cache-hit/remap path, and the paper's fixed
//     constructions as anchors. The same seed always yields the
//     byte-identical corpus.
//
//   - Driver (driver.go): an open-loop load driver. NewDriver plans the
//     run's arrivals before it starts — per tenant, arrival k due k/rate
//     after the start, a weighted mix of synchronous solves, batch solves,
//     asynchronous jobs (submit + SSE follow) and online mutation chains
//     drawn from seeded streams — and Run plays that plan, or a recording
//     to replay, through one loop against a base URL (an in-process backend
//     or a remote crserved). The report holds per-class and per-tenant
//     Stats: latency distributions via internal/stats, error/shed/cancel
//     counts and engine-telemetry aggregates (nodes explored, incumbents,
//     results per cache source — load runs double as solver-behaviour
//     regressions), plus throughput and the cache-hit accounting scraped
//     from /metrics.
//
// The server a driver runs against in-process is crserved's own backend,
// built by service.Build on a loopback listener; crload's in-process mode
// and the end-to-end tests build it that way.
//
//   - Oracle (oracle.go): every schedule a response carries is re-executed
//     with core.Execute and revalidated against the paper's invariants
//     (core.CheckProperties, and CheckProposition1/CheckProposition2 for
//     balanced schedules); any violation fails the run loudly. The paper's
//     propositions are thereby the regression oracle of every load test.
//
// On top of the single driver sits the fleet-scale verification layer:
//
//   - Recording (record.go): a versioned JSONL codec for a run's full
//     request stream — planned arrival offsets, class, tenant, instance
//     payloads with canonical fingerprints, the online chain of each online
//     entry, per-request outcome. A live run's plan is a Recording, and
//     Driver.Recording returns the part Run played, so a replay
//     (Config.Replay) goes through the same loop as the run it re-issues,
//     warm starts included, and two runs are comparable request-for-request.
//     Decoding re-verifies every fingerprint and rejects corrupt, truncated
//     or unknown-version input with line numbers.
//
//   - Merge (report.go): each crload process runs one driver; MergeReports
//     pools the report JSONs of several processes: counts add exactly, and
//     latency quantiles are re-estimated from the merged histograms, which
//     share canonical millisecond bounds (stats.Histogram.Merge), so
//     distribution merging is exact rather than approximated from
//     summaries.
//
//   - SLO (slo.go): a strict declarative spec — per-class P99 ceilings,
//     shed-rate cap, cache-hit floor, zero oracle violations, a minimum
//     request count against vacuous passes — evaluated against the merged
//     report; crload maps violations to a distinct exit code for CI.
//
// The golden-corpus regression suite (golden_test.go + testdata/) pins the
// makespan and waste of every deterministic solver on a fixed corpus so that
// behavioural drift across refactors fails `go test ./...` unless the
// fixtures are regenerated with -update.
//
// Command crload is the CLI front end of this package.
package harness
