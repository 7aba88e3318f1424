package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
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
// than allocating one per response.
func TestRespondPoolsItsBuffer(t *testing.T) {
	srv, _ := newTestServer(t, &stubSolver{name: "stub"}, nil)
	var body any = &SolveResponse{Solver: "stub", Properties: strings.Repeat("<non-wasting> ", 1200), Ratio: 1.0 / 3}
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
	// Headers cost a few small allocations; the ~29 KB body must not.
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 1024 {
		t.Fatalf("respond allocates %d bytes per %d-byte response", perCall, want.Len())
	}
}
