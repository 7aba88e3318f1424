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
//   - Driver (driver.go): an open-loop replay driver that fires a weighted
//     mix of synchronous solves, batch solves and asynchronous jobs
//     (submit + SSE follow) at a base URL — an in-process backend or a
//     remote crserved — and collects per-class latency distributions via
//     internal/stats, throughput, error/cancel counts, per-class
//     engine-telemetry aggregates (nodes explored, incumbents, results per
//     cache source — load runs double as solver-behaviour regressions) and
//     the cache-hit accounting scraped from /metrics.
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
//   - Recording (record.go): a versioned JSONL codec that captures a run's
//     full request stream — arrival offsets, class, tenant, instance
//     payloads with canonical fingerprints, per-request outcome — and a
//     replay mode (Config.Replay) that re-issues it bit-exactly, so two
//     runs are comparable request-for-request. Decoding re-verifies every
//     fingerprint and rejects corrupt, truncated or unknown-version input
//     with line numbers.
//
//   - Fleet (fleet.go): RunFleet splits one corpus (ShardCorpus) or one
//     recording (Recording.Shard) deterministically over N in-process
//     driver shards, scrapes /metrics once around the whole fleet, and
//     merges the shard reports. MergeReports (report.go) also pools report
//     JSONs from separate processes: counts add exactly, and latency
//     quantiles are re-estimated from merged fixed-bounds log-domain
//     histograms (stats.Histogram.Merge), so distribution merging is exact
//     rather than approximated from summaries.
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
