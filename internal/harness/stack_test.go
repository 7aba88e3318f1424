package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/service"
)

// TestStackCloseLeaksNoGoroutines brings a stack up, serves a few solves
// over HTTP, tears it down and asserts the goroutine count settles back to
// the baseline: Close must stop the listener, the job workers and every
// handler it started.
func TestStackCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	stack, err := NewStack(StackConfig{DefaultSolver: "greedy-balance"})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	for i := 0; i < 3; i++ {
		body, err := json.Marshal(service.SolveRequest{
			Instance: core.NewInstance([]float64{0.3, 0.7}, []float64{0.5, float64(i+1) / 10}),
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(stack.URL+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
	}
	client.CloseIdleConnections()
	if err := stack.Close(); err != nil {
		t.Fatalf("stack close: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
