package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/harness"
	"crsharing/internal/service"
)

// clientTimeout bounds one HTTP request so a wedged server cannot hang the
// benchmark past its own time limit.
const clientTimeout = 60 * time.Second

// coldSamplesPerClient is how many answers each client keeps, by seeded
// reservoir sampling, for the cold re-check after the measured phase.
const coldSamplesPerClient = 16

// client is one closed-loop caller: it sends its next request only after the
// previous answer was received, decoded and checked. Each client owns one
// keep-alive connection.
type client struct {
	id     int
	url    string
	hc     *http.Client
	tr     *tracer
	oracle *harness.Oracle
	src    source
	rng    *rand.Rand // reservoir sampling of cold-check answers
	seq    uint64
	// answered counts checked answers; the measured phase reads it at
	// window edges.
	answered atomic.Int64
	// start and window place each measured request's latency in its window.
	start  time.Time
	window time.Duration
	// keep records every answer and each request's admission wait, for
	// the traced run's comparison and attribution.
	keep bool
}

func newClient(id int, w *workload, url string, seed int64, pool *instancePool, tr *tracer) *client {
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	if tr != nil {
		rt = &clientTransport{base: rt}
	}
	return &client{
		id:     id,
		url:    url,
		hc:     &http.Client{Transport: rt, Timeout: clientTimeout},
		tr:     tr,
		oracle: harness.NewOracle(),
		src:    w.next(seed, id, pool),
		rng:    rand.New(rand.NewSource(seed*clientRNGFactor + 5 + int64(id))),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// answer is the part of one instance's result the benchmark keeps.
type answer struct {
	inst     *core.Instance
	makespan int
	source   string
	elapsed  float64 // telemetry elapsed_ms of the solve that produced it
}

// phaseStats accumulates one client's view of a phase.
type phaseStats struct {
	sent, okRequests, failedRequests int64
	attempted, answered, failed      int64
	latencies                        [numWindows][]float64 // ms per HTTP request, by window
	ratioSum                         float64
	sources                          map[string]int64
	errs                             []string

	// Telemetry of fresh solves; freshQueueMS in traced runs only.
	freshQueueMS            []float64
	freshNodes, freshAllocs int64
	fresh                   int64
	winners                 map[string]int64

	cold []answer // reservoir sample for the cold re-check
	seen int64    // answers offered to the reservoir

	// Traced runs only.
	answers       []answer           // every answer in request order
	perClient     [][]answer         // merged stats: each client's answers
	queueMS       map[uint64]float64 // per request ID
	fingerprintUS []float64
}

func newPhaseStats() *phaseStats {
	return &phaseStats{sources: map[string]int64{}, winners: map[string]int64{}, queueMS: map[uint64]float64{}}
}

const maxErrSamples = 5

func (p *phaseStats) fail(n int64, format string, args ...any) {
	p.failed += n
	if len(p.errs) < maxErrSamples {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// run sends requests until the deadline and returns the client's stats.
func (c *client) run(deadline time.Time) *phaseStats {
	p := newPhaseStats()
	for time.Now().Before(deadline) {
		c.do(c.src.next(), p)
	}
	return p
}

// runAll sends a fixed list of requests (the set-up warm-up).
func (c *client) runAll(reqs []request) *phaseStats {
	p := newPhaseStats()
	for _, r := range reqs {
		c.do(r, p)
	}
	return p
}

func (c *client) do(r request, p *phaseStats) {
	c.seq++
	reqID := uint64(c.id+1)<<40 | c.seq
	ctx := context.Background()
	var cs span
	if c.tr != nil {
		cs = span{id: c.tr.nextID.Add(1), req: reqID, kind: spanClient}
		ctx = withRef(ctx, traceRef{req: reqID, id: cs.id})
	}
	n := int64(len(r.insts))
	p.sent++
	p.attempted += n
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+r.path, bytes.NewReader(r.body))
	if err != nil {
		p.failedRequests++
		p.fail(n, "building request: %v", err)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")

	start := time.Now()
	if c.tr != nil {
		cs.start = c.tr.now()
	}
	var single service.SolveResponse
	var batch service.BatchResponse
	status, err := c.post(hreq, r.path, &single, &batch)
	lat := float64(time.Since(start)) / 1e6
	if c.tr != nil {
		cs.end = c.tr.now()
		c.tr.record(cs)
	}
	if err != nil {
		p.failedRequests++
		p.fail(n, "request: %v", err)
		return
	}
	if status != http.StatusOK {
		p.failedRequests++
		p.fail(n, "HTTP %d", status)
		return
	}
	p.okRequests++
	w := 0
	if c.window > 0 {
		w = min(int(time.Since(c.start)/c.window), numWindows-1)
	}
	p.latencies[w] = append(p.latencies[w], lat)
	if r.path == batchPath {
		c.checkBatch(reqID, r, &batch, p)
	} else {
		c.checkSingle(reqID, r.insts[0], &single, p)
	}
	if c.tr != nil {
		for _, inst := range r.insts {
			cl := inst.Clone()
			t := time.Now()
			cl.Fingerprint()
			p.fingerprintUS = append(p.fingerprintUS, float64(time.Since(t))/1e3)
		}
	}
}

// post sends the request and decodes a 200 body into the response type of
// the workload's endpoint.
func (c *client) post(req *http.Request, path string, single *service.SolveResponse, batch *service.BatchResponse) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var dst any = single
	if path == batchPath {
		dst = batch
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return 0, fmt.Errorf("decoding response: %w", err)
	}
	return resp.StatusCode, nil
}

func (c *client) checkSingle(reqID uint64, inst *core.Instance, resp *service.SolveResponse, p *phaseStats) {
	label := fmt.Sprintf("client %d request %d", c.id, c.seq)
	if err := c.oracle.CheckSchedule(label, inst, resp.Schedule, resp.Makespan, resp.Wasted); err != nil {
		p.fail(1, "%v", err)
		return
	}
	c.accept(reqID, inst, resp.Makespan, resp.Source, resp.Telemetry, p)
}

func (c *client) checkBatch(reqID uint64, r request, resp *service.BatchResponse, p *phaseStats) {
	if resp.Count != len(r.insts) || len(resp.Results) != len(r.insts) {
		p.fail(int64(len(r.insts)), "batch answered %d of %d instances", len(resp.Results), len(r.insts))
		return
	}
	for i, res := range resp.Results {
		label := fmt.Sprintf("client %d request %d result %d", c.id, c.seq, i)
		switch {
		case res.Index != i:
			p.fail(1, "%s: index %d", label, res.Index)
		case res.Error != "" || res.Cancelled || res.Shed:
			p.fail(1, "%s: error=%q cancelled=%v shed=%v", label, res.Error, res.Cancelled, res.Shed)
		default:
			if err := c.oracle.CheckMakespan(label, r.insts[i], res.Makespan); err != nil {
				p.fail(1, "%v", err)
				continue
			}
			c.accept(reqID, r.insts[i], res.Makespan, res.Source, res.Telemetry, p)
		}
	}
}

// accept books one checked answer.
func (c *client) accept(reqID uint64, inst *core.Instance, makespan int, source string, tel *engine.Telemetry, p *phaseStats) {
	p.answered++
	c.answered.Add(1)
	p.ratioSum += float64(makespan) / float64(lowerBound(inst))
	p.sources[source]++
	a := answer{inst: inst, makespan: makespan, source: source}
	if tel != nil {
		a.elapsed = tel.ElapsedMS
		if c.keep {
			p.queueMS[reqID] += tel.QueueMS
		}
		if source == "solve" {
			p.fresh++
			if c.keep {
				p.freshQueueMS = append(p.freshQueueMS, tel.QueueMS)
			}
			p.freshNodes += tel.Nodes
			p.freshAllocs += tel.KernelAllocs
			if tel.Solver == defaultSolver {
				p.winners[tel.Winner]++
			}
		}
	}
	p.seen++
	if len(p.cold) < coldSamplesPerClient {
		p.cold = append(p.cold, a)
	} else if k := c.rng.Int63n(p.seen); k < coldSamplesPerClient {
		p.cold[k] = a
	}
	if c.keep {
		p.answers = append(p.answers, a)
	}
}

// lowerBound is the instance's best lower bound, the denominator of
// makespan_ratio.
func lowerBound(inst *core.Instance) int { return core.LowerBounds(inst).Best() }
