package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/stats"
)

// metrics holds the server's request-level counters. Everything is atomic:
// handlers run concurrently and /metrics reads while they write. Solve-level
// accounting (sources, nodes, admission, latency histograms) lives in the
// engine, which write renders alongside.
type metrics struct {
	requestsSolve   atomic.Uint64
	requestsBatch   atomic.Uint64
	requestsJobs    atomic.Uint64
	requestsOther   atomic.Uint64
	errorsTotal     atomic.Uint64
	batchInstances  atomic.Uint64
	batchCancelled  atomic.Uint64
	deadlineExpired atomic.Uint64
	// shedTotal counts requests answered 429-with-Retry-After because a
	// tenant quota refused them (solve, fully-shed batch, or job submit).
	shedTotal atomic.Uint64
	// Peer cache-fill accounting (see peerfill.go): solves this backend
	// forwarded to the owning peer, fills this backend served on a peer's
	// behalf, and forwards that failed and fell back to a local solve.
	peerFillForwarded atomic.Uint64
	peerFillServed    atomic.Uint64
	peerFillErrors    atomic.Uint64
}

// write renders the request counters, the engine's solve telemetry (sources,
// search nodes, admission queueing and the solve latency / search-size
// histograms), the cache counters and the job manager's gauges in the
// Prometheus text exposition format (version 0.0.4): every sample is
// preceded by its # HELP and # TYPE lines, which also makes the endpoint
// perfectly readable with curl.
func (m *metrics) write(w io.Writer, eng *engine.Engine, jm *jobs.Manager, uptime time.Duration) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	// floatCounter renders a monotonically increasing float accumulator with
	// the counter type the _total suffix promises.
	floatCounter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	// labelled renders one series with a {tenant="..."} label per row, keys
	// sorted so the exposition is deterministic.
	labelled := func(name, help, kind string, rows map[string]float64) {
		if len(rows) == 0 {
			return
		}
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{tenant=%q} %g\n", name, k, rows[k])
		}
	}
	counter("crsharing_requests_solve_total", "POST /v1/solve requests.", m.requestsSolve.Load())
	counter("crsharing_requests_batch_total", "POST /v1/batch-solve requests.", m.requestsBatch.Load())
	counter("crsharing_requests_jobs_total", "Requests to the /v1/jobs endpoints.", m.requestsJobs.Load())
	counter("crsharing_requests_other_total", "Requests to the remaining endpoints.", m.requestsOther.Load())
	counter("crsharing_errors_total", "Requests answered with a non-2xx status.", m.errorsTotal.Load())
	counter("crsharing_batch_instances_total", "Instances received in batch requests.", m.batchInstances.Load())
	counter("crsharing_batch_cancelled_total", "Batch instances never attempted because the deadline expired.", m.batchCancelled.Load())
	counter("crsharing_deadline_expired_total", "Solve requests that hit their deadline.", m.deadlineExpired.Load())
	counter("crsharing_requests_shed_total", "Requests answered 429 with Retry-After because a tenant quota refused them.", m.shedTotal.Load())
	counter("crsharing_peer_fill_forwarded_total", "Cache-miss solves forwarded to the owning peer backend.", m.peerFillForwarded.Load())
	counter("crsharing_peer_fill_served_total", "Solves served on behalf of a peer backend (cache fills).", m.peerFillServed.Load())
	counter("crsharing_peer_fill_errors_total", "Peer forwards that failed and fell back to a local solve.", m.peerFillErrors.Load())
	gauge("crsharing_uptime_seconds", "Seconds since the server started.", uptime.Seconds())

	snap := eng.Snapshot()
	counter("crsharing_solves_total", "Fresh solver invocations (cache misses), across every surface.", snap.SourceSolve)
	counter("crsharing_cache_served_total", "Solve requests answered from the cache or an in-flight solve.", snap.SourceCache+snap.SourceCoalesced)
	counter("crsharing_engine_source_cache_total", "Solve requests answered from the memo cache.", snap.SourceCache)
	counter("crsharing_engine_source_coalesced_total", "Solve requests coalesced onto an identical in-flight solve.", snap.SourceCoalesced)
	counter("crsharing_engine_errors_total", "Solve requests that failed (excluding quota sheds).", snap.Errors)
	counter("crsharing_engine_shed_total", "Solve requests refused over a tenant quota (429 material, not errors).", snap.Shed)
	counter("crsharing_engine_nodes_total", "Search nodes / configurations explored by fresh solves.", uint64(snap.NodesTotal))
	counter("crsharing_engine_incumbents_total", "Improving incumbents reported by fresh solves.", uint64(snap.IncumbentsTotal))
	floatCounter("crsharing_engine_queue_wait_seconds_total", "Total time solve requests spent waiting for admission.", snap.QueueSeconds)
	gauge("crsharing_solve_inflight", "Admission weight currently held by running solves.", float64(snap.Inflight))
	gauge("crsharing_engine_admission_waiting", "Solve requests queued for admission right now.", float64(snap.Waiting))
	writeHistogram(w, "crsharing_engine_solve_duration_seconds", "Wall-clock distribution of fresh solves.", snap.SolveSeconds)
	writeHistogram(w, "crsharing_engine_solve_nodes", "Search-size distribution (nodes / configurations) of fresh solves.", snap.SolveNodes)

	if len(snap.Tenants) > 0 {
		requests := make(map[string]float64, len(snap.Tenants))
		shed := make(map[string]float64, len(snap.Tenants))
		terrs := make(map[string]float64, len(snap.Tenants))
		queueWait := make(map[string]float64, len(snap.Tenants))
		inflight := make(map[string]float64, len(snap.Tenants))
		queued := make(map[string]float64, len(snap.Tenants))
		for name, ts := range snap.Tenants {
			requests[name] = float64(ts.Requests)
			shed[name] = float64(ts.Shed)
			terrs[name] = float64(ts.Errors)
			queueWait[name] = ts.QueueSeconds
			inflight[name] = float64(ts.Inflight)
			queued[name] = float64(ts.Queued)
		}
		labelled("crsharing_tenant_requests_total", "Solve requests finished, by tenant.", "counter", requests)
		labelled("crsharing_tenant_shed_total", "Solve requests refused over quota, by tenant.", "counter", shed)
		labelled("crsharing_tenant_errors_total", "Solve requests failed (excluding sheds), by tenant.", "counter", terrs)
		labelled("crsharing_tenant_queue_wait_seconds_total", "Admission wait, by tenant.", "counter", queueWait)
		labelled("crsharing_tenant_inflight", "Admission weight currently held, by tenant.", "gauge", inflight)
		labelled("crsharing_tenant_queued", "Requests waiting for admission right now, by tenant.", "gauge", queued)
	}

	if cache := eng.Cache(); cache != nil {
		st := cache.Stats()
		counter("crsharing_cache_hits_total", "Memo cache hits.", st.Hits)
		counter("crsharing_cache_misses_total", "Memo cache misses.", st.Misses)
		counter("crsharing_cache_coalesced_total", "Requests coalesced onto an identical in-flight solve.", st.Coalesced)
		counter("crsharing_cache_evictions_total", "LRU evictions.", st.Evictions)
		gauge("crsharing_cache_entries", "Evaluations currently cached.", float64(st.Entries))
	}
	if jm != nil {
		st := jm.Stats()
		gauge("crsharing_jobs_queue_depth", "Jobs waiting in the queue.", float64(st.QueueDepth))
		gauge("crsharing_jobs_queue_capacity", "Bound of the job queue.", float64(st.QueueCapacity))
		gauge("crsharing_jobs_running", "Jobs currently held by workers.", float64(st.Running))
		gauge("crsharing_jobs_workers", "Size of the job worker pool.", float64(st.Workers))
		counter("crsharing_jobs_submitted_total", "Jobs accepted into the queue.", st.Submitted)
		counter("crsharing_jobs_done_total", "Jobs completed with a valid evaluation.", st.Done)
		counter("crsharing_jobs_failed_total", "Jobs that errored or exceeded their budget.", st.Failed)
		counter("crsharing_jobs_cancelled_total", "Jobs cancelled by clients or shutdown.", st.Cancelled)
	}
}

// writeHistogram renders h as a Prometheus histogram: one cumulative
// _bucket line per bound, labelled le, then the +Inf bucket (every sample,
// the overflow slot included), _sum and _count.
func writeHistogram(w io.Writer, name, help string, h *stats.Histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	total := h.Total()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, total)
}
