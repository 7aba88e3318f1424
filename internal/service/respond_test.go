package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/engine"
)

// recordingWriter is a minimal ResponseWriter that keeps the last body.
type recordingWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(status int) {
	w.status = status
}
func (w *recordingWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// TestRespondPoolsItsBuffer: respond writes exactly what json.Encoder
// writes, with its Content-Length, and encodes into a pooled buffer rather
// than allocating one per response — for a bare response and for one with
// telemetry and a schedule.
func TestRespondPoolsItsBuffer(t *testing.T) {
	sched := core.NewSchedule(40, 6)
	for step, row := range sched.Alloc {
		for i := range row {
			row[i] = float64((step*6+i)%7) / 31
		}
	}
	for name, body := range map[string]any{
		"bare": &SolveResponse{Solver: "stub", Properties: strings.Repeat("<non-wasting> ", 1200), Ratio: 1.0 / 3},
		"telemetry+schedule": &SolveResponse{
			Solver: "portfolio", Algorithm: "greedy-balance (via portfolio)", Source: "cache",
			Fingerprint: "0123456789abcdef", Makespan: 40, LowerBound: 38, Ratio: 40.0 / 38, Wasted: 0.125,
			Properties: strings.Repeat("<non-wasting> ", 600), ElapsedMS: 1.5,
			Telemetry: &engine.Telemetry{
				Solver: "portfolio", Tenant: "default", Winner: "greedy-balance", Algorithm: "greedy-balance (via portfolio)",
				Source: "cache", ElapsedMS: 1.5, QueueMS: 1e-7, Nodes: 1234, Incumbents: 3, Makespan: 40, LowerBound: 38,
				LowerBoundKind: "work", Ratio: 40.0 / 38, Steps: 40, Wasted: 0.125, Properties: "non-wasting",
			},
			Schedule: sched,
		},
	} {
		t.Run(name, func(t *testing.T) { checkRespondPools(t, body) })
	}
}

func checkRespondPools(t *testing.T, body any) {
	srv, _ := newTestServer(t, &stubSolver{name: "stub"}, nil)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(body); err != nil {
		t.Fatal(err)
	}
	w := &recordingWriter{header: http.Header{}}
	w.body.Grow(2 * want.Len())
	respond := func() {
		w.body.Reset()
		srv.respond(w, http.StatusCreated, body)
	}
	respond()
	if w.status != http.StatusCreated || !bytes.Equal(w.body.Bytes(), want.Bytes()) {
		t.Fatalf("status %d body %q, want %d %q", w.status, w.body.Bytes(), http.StatusCreated, want.Bytes())
	}
	if got := w.header.Get("Content-Length"); got != strconv.Itoa(want.Len()) {
		t.Fatalf("Content-Length %q, want %d", got, want.Len())
	}

	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled buffers at random")
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		respond()
	}
	runtime.ReadMemStats(&after)
	// Headers cost a few small allocations; the bodies of many KB must not.
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 1024 {
		t.Fatalf("respond allocates %d bytes per %d-byte response", perCall, want.Len())
	}
}
