package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/service"
)

// listenAndBuild builds a backend from o on a loopback listener, as crload's
// in-process mode does.
func listenAndBuild(t *testing.T, o service.Options) *service.Backend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	backend, err := service.Build(o, ln)
	if err != nil {
		t.Fatal(err)
	}
	return backend
}

// postOK posts body as JSON and fails the test unless the status is want.
func postOK(t *testing.T, client *http.Client, url string, body any, want int) []byte {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, want, out)
	}
	return out
}

// TestStackCloseLeaksNoGoroutines brings crserved's backend up, serves it,
// tears it down and asserts the goroutine count settles back to the
// baseline: Backend.Close must stop the listener, the job workers and every
// handler it started. An open event stream on a job that runs to its
// one-minute deadline must neither leak nor hold Close for that minute.
func TestStackCloseLeaksNoGoroutines(t *testing.T) {
	t.Run("solves", func(t *testing.T) {
		o := service.DefaultOptions()
		o.DefaultSolver = "greedy-balance"
		checkCloseLeaksNothing(t, o, func(client *http.Client, url string) {
			for i := 0; i < 3; i++ {
				postOK(t, client, url+"/v1/solve", service.SolveRequest{
					Instance: core.NewInstance([]float64{0.3, 0.7}, []float64{0.5, float64(i+1) / 10}),
				}, http.StatusOK)
			}
		})
	})
	t.Run("open-event-stream", func(t *testing.T) {
		o := service.DefaultOptions()
		o.JobTimeout = time.Minute
		checkCloseLeaksNothing(t, o, func(client *http.Client, url string) {
			// The Theorem-6 search on a random eight-processor instance runs
			// to its deadline.
			body := postOK(t, client, url+"/v1/jobs", service.JobRequest{
				Instance: gen.Random(rand.New(rand.NewSource(1)), 8, 3, 0.1, 0.9),
				Solver:   "opt-res-assignment-2",
			}, http.StatusAccepted)
			var job struct{ ID, State string }
			if err := json.Unmarshal(body, &job); err != nil {
				t.Fatal(err)
			}
			stream, err := client.Get(url + "/v1/jobs/" + job.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stream.Body.Read(make([]byte, 1)); err != nil {
				t.Fatalf("no initial state event: %v", err)
			}
			go func() {
				defer stream.Body.Close()
				io.Copy(io.Discard, stream.Body)
			}()
			for job.State != "running" {
				time.Sleep(10 * time.Millisecond)
				resp, err := client.Get(url + "/v1/jobs/" + job.ID)
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&job)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	})
}

// checkCloseLeaksNothing builds a backend from o, runs exercise against it
// with a client of its own, closes it and waits for the goroutine count to
// fall back to where it started.
func checkCloseLeaksNothing(t *testing.T, o service.Options, exercise func(client *http.Client, url string)) {
	t.Helper()
	before := runtime.NumGoroutine()
	backend := listenAndBuild(t, o)
	// The timeout outlasts a one-minute job, so only Close can end its
	// event stream sooner.
	client := &http.Client{Transport: &http.Transport{}, Timeout: 2 * time.Minute}
	exercise(client, backend.URL)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := backend.Close(ctx); err != nil {
		t.Fatalf("backend close: %v", err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("backend close took %v", took)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		client.CloseIdleConnections()
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
