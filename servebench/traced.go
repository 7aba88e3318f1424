package main

import (
	"fmt"
	"io"
	"slices"

	"crsharing/internal/solver"
)

// deadlineBoundMS marks answers whose solve ran into the single-solve
// deadline: a portfolio that hits its deadline keeps whatever its members
// had found by then, so such answers may legitimately differ between runs.
const deadlineBoundMS = 0.9 * float64(singleTimeout/1e6)

// runTraced measures the workload untraced and then traced, each on a fresh
// set-up, reports the per-layer metrics of the traced phase and the tracing
// overhead, and fails when the two phases gave different answers.
func runTraced(cfg config, rep *report) (*result, error) {
	w, out := cfg.workload, rep.out

	plain, err := tracedPhase(cfg, nil, out, "untraced")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := tracedPhase(cfg, tr, out, "traced")
	if err != nil {
		return nil, err
	}
	spans := tr.take()
	if err := writeSpans(cfg.spanFile, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), cfg.spanFile)

	mismatches := compareAnswers(out, plain.stats.perClient, traced.stats.perClient)
	perLayer(rep, w, traced, spans, plain.opsPerS)

	var failed int64
	for _, p := range []*phase{plain, traced} {
		failed += p.stats.failed + int64(len(p.coldFailures)) + p.warmFailed
	}
	failed += int64(mismatches)
	return &result{
		Correct:   failed == 0,
		Attempted: plain.stats.attempted + traced.stats.attempted,
		Failed:    failed,
		Metrics:   rep.metrics,
	}, nil
}

// tracedPhase sets up once, measures, cold-checks and tears down. With a
// tracer, the spans of the warm-up and the settling requests are dropped and
// the measured phase's spans stay in the tracer.
func tracedPhase(cfg config, tr *tracer, out io.Writer, label string) (*phase, error) {
	e, _, err := setup(cfg.workload, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	for _, c := range e.clients {
		c.keep = true
	}
	p := measure(e, cfg.workload, cfg.duration, tr)
	p.warmFailed = e.warm.failed + p.settled.failed
	e.close()
	coldCheck(cfg.workload, p)
	printPhase(out, label+" warm-up", e.warm)
	printPhase(out, label+" settle", p.settled)
	printPhase(out, label+" measured", p.stats)
	printCold(out, p)
	fmt.Fprintf(out, "%s ops_per_s %.4f 1/s n=%d\n", label, p.opsPerS, p.stats.answered)
	return p, nil
}

// compareAnswers checks that the traced phase answered the common prefix of
// each client's request sequence exactly like the untraced phase: the same
// makespan and the same answer source. Deadline-bound answers are counted
// but not compared. It returns the number of mismatches.
func compareAnswers(out io.Writer, plain, traced [][]answer) int {
	var compared, skipped, mismatches int
	var ratio [2]float64
	sources := [2]map[string]int64{{}, {}}
	for c := range plain {
		n := min(len(plain[c]), len(traced[c]))
		for i := 0; i < n; i++ {
			a, b := plain[c][i], traced[c][i]
			if a.elapsed >= deadlineBoundMS || b.elapsed >= deadlineBoundMS {
				skipped++
				continue
			}
			compared++
			for k, x := range []answer{a, b} {
				ratio[k] += float64(x.makespan) / float64(lowerBound(x.inst))
				sources[k][x.source]++
			}
			if a.makespan != b.makespan || a.source != b.source {
				if mismatches < maxErrSamples {
					fmt.Fprintf(out, "  behaviour mismatch: client %d answer %d: untraced makespan %d source %s, traced makespan %d source %s\n",
						c, i, a.makespan, a.source, b.makespan, b.source)
				}
				mismatches++
			}
		}
	}
	fmt.Fprintf(out, "behaviour: %d answers compared, %d deadline-bound skipped, %d mismatches; makespan_ratio untraced=%.6f traced=%.6f; sources untraced=%s traced=%s\n",
		compared, skipped, mismatches, ratio[0]/float64(max(compared, 1)), ratio[1]/float64(max(compared, 1)),
		sortedCounts(sources[0]), sortedCounts(sources[1]))
	return mismatches
}

// portfolioMembers names the default portfolio's members, in race order.
func portfolioMembers() []string {
	var names []string
	for _, m := range solver.NewDefaultPortfolio().Members {
		names = append(names, m.Name())
	}
	return names
}

// perLayer reports the per-layer metrics of a traced phase.
func perLayer(rep *report, w *workload, p *phase, spans []span, untracedOps float64) {
	s := p.stats
	lt := attribute(spans, s.queueMS, w.timeout)
	for _, xs := range [][]float64{lt.transportSelf, lt.routerSelf, lt.routerHop, lt.handler, lt.serviceSelf, lt.kernel, s.fingerprintUS, s.freshQueueMS} {
		slices.Sort(xs)
	}
	ops := float64(s.answered)
	c := p.counters
	lookups := float64(c.hits + c.misses + c.coalesced)

	rep.add("transport.self_ms.p50", quantile(lt.transportSelf, 0.5), "ms", len(lt.transportSelf))
	rep.add("router.self_ms.p50", quantile(lt.routerSelf, 0.5), "ms", len(lt.routerSelf))
	rep.add("router.hop_ms.p50", quantile(lt.routerHop, 0.5), "ms", len(lt.routerHop))
	rep.add("router.subrequests_per_req", mean(lt.subrequests), "count", len(lt.subrequests))
	rep.add("service.handler_ms.p50", quantile(lt.handler, 0.5), "ms", len(lt.handler))
	rep.add("service.handler_ms.p90", quantile(lt.handler, 0.9), "ms", len(lt.handler))
	rep.add("service.self_ms.p50", quantile(lt.serviceSelf, 0.5), "ms", len(lt.serviceSelf))
	rep.add("service.resp_kb.mean", mean(lt.respKB), "KiB", len(lt.respKB))
	rep.add("core.fingerprint_us.p50", quantile(s.fingerprintUS, 0.5), "us", len(s.fingerprintUS))
	rep.add("engine.queue_ms.p90", quantile(s.freshQueueMS, 0.9), "ms", len(s.freshQueueMS))
	rep.add("engine.fresh_per_op", float64(c.fresh)/ops, "ratio", int(s.answered))
	rep.add("solver.cache.hit_ratio", float64(c.hits)/lookups, "ratio", int(lookups))
	rep.add("solver.cache.coalesced_ratio", float64(c.coalesced)/lookups, "ratio", int(lookups))
	rep.add("solver.cache.evictions_per_kop", float64(c.evictions)/ops*1000, "1/kop", int(s.answered))
	rep.add("solver.neighbor.warm_ratio", float64(c.warm)/float64(c.fresh), "ratio", int(c.fresh))
	rep.add("solver.kernel_ms.p50", quantile(lt.kernel, 0.5), "ms", len(lt.kernel))
	rep.add("solver.kernel_ms.p90", quantile(lt.kernel, 0.9), "ms", len(lt.kernel))
	rep.add("solver.kernel_overrun_ratio", float64(lt.kernelOverruns)/float64(len(lt.kernel)), "ratio", len(lt.kernel))
	var raced int64
	for _, n := range s.winners {
		raced += n
	}
	for _, m := range portfolioMembers() {
		rep.add("solver.portfolio.win_share."+m, float64(s.winners[m])/float64(raced), "ratio", int(raced))
	}
	rep.add("algo.nodes_per_solve", float64(s.freshNodes)/float64(s.fresh), "count", int(s.fresh))
	rep.add("algo.kernel_allocs_per_solve", float64(s.freshAllocs)/float64(s.fresh), "count", int(s.fresh))
	rep.add("runtime.gc_cpu_ms_per_op", p.gcCPU*1e3/ops, "ms", int(s.answered))
	rep.add("tracing.overhead_pct", (untracedOps-p.opsPerS)/untracedOps*100, "%", -1)
}
