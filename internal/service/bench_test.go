package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/engine"
)

// benchInstance is a 6-processor, 4-jobs-per-processor instance, the shape
// of servebench's pool; k varies the requirements so instances differ.
func benchInstance(k int) *core.Instance {
	procs := make([][]float64, 6)
	for p := range procs {
		procs[p] = make([]float64, 4)
		for j := range procs[p] {
			procs[p][j] = float64((k+p*4+j)%9+1) / 10
		}
	}
	return core.NewInstance(procs...)
}

// bodyReader is a request body the benchmarks rewind instead of
// reallocating.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// BenchmarkServiceDecodeSolve decodes a servebench-shaped solve body: the
// instance, a timeout and include_schedule.
func BenchmarkServiceDecodeSolve(b *testing.B) {
	srv, _ := newTestServer(b, &stubSolver{name: "stub"}, nil)
	raw, err := json.Marshal(benchInstance(0))
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"instance":%s,"timeout":"5s","include_schedule":true}`, raw))
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
	br := &bodyReader{}
	r.Body, r.ContentLength = br, int64(len(body))
	w := &recordingWriter{header: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		br.Reset(body)
		var req SolveRequest
		if !srv.decode(w, r, &req) || req.Instance == nil {
			b.Fatalf("decode failed: %s", w.body.Bytes())
		}
	}
}

// BenchmarkServiceRespondSolve encodes a cache-hit solve response with its
// telemetry and the 12-step, 6-processor schedule of a solved pool
// instance.
func BenchmarkServiceRespondSolve(b *testing.B) {
	srv, _ := newTestServer(b, &stubSolver{name: "stub"}, nil)
	sched := core.NewSchedule(12, 6)
	for step, row := range sched.Alloc {
		for i := range row {
			row[i] = float64((step*6+i)%7) / 31
		}
	}
	resp := &SolveResponse{
		Solver: "portfolio", Algorithm: "greedy-balance (via portfolio)", Source: "cache",
		Fingerprint: "0123456789abcdef", Makespan: 12, LowerBound: 11, Ratio: 12.0 / 11, Wasted: 0.375,
		Properties: "non-wasting, progressive", ElapsedMS: 0.42,
		Telemetry: &engine.Telemetry{
			Solver: "portfolio", Tenant: "default", Winner: "greedy-balance", Algorithm: "greedy-balance (via portfolio)",
			Source: "cache", ElapsedMS: 0.42, Nodes: 96, Incumbents: 2, Makespan: 12, LowerBound: 11,
			LowerBoundKind: "work", Ratio: 12.0 / 11, Steps: 12, Wasted: 0.375, Properties: "non-wasting, progressive",
		},
		Schedule: sched,
	}
	w := &recordingWriter{header: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.body.Reset()
		srv.respond(w, http.StatusOK, resp)
	}
}

// BenchmarkServiceBatchRoundTrip serves an 8-instance batch whose every
// instance is a cache hit, in process: decode, the engine's fan-out over
// the cache, and the encoded response.
func BenchmarkServiceBatchRoundTrip(b *testing.B) {
	srv, _ := newTestServer(b, &stubSolver{name: "stub"}, nil)
	insts := make([]*core.Instance, 8)
	for i := range insts {
		insts[i] = benchInstance(i)
	}
	body, err := json.Marshal(BatchRequest{Instances: insts, Timeout: "5s"})
	if err != nil {
		b.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/batch-solve", nil)
	br := &bodyReader{}
	r.Body, r.ContentLength = br, int64(len(body))
	w := &recordingWriter{header: http.Header{}}
	serve := func() {
		br.Reset(body)
		w.body.Reset()
		srv.Handler().ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("status %d: %s", w.status, w.body.Bytes())
		}
	}
	serve() // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
