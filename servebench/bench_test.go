package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// inputs returns the first n request bodies of one client's stream.
func inputs(t *testing.T, w *workload, seed int64, client, n int) [][]byte {
	t.Helper()
	var pool *instancePool
	if w.pool {
		var err error
		if pool, err = buildPool(seed); err != nil {
			t.Fatal(err)
		}
	}
	src := w.next(seed, client, pool)
	out := make([][]byte, n)
	for i := range out {
		out[i] = src.next().body
	}
	return out
}

func TestInputsDeterministic(t *testing.T) {
	const n = 40
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for client := 0; client < numClients; client++ {
				a, b := inputs(t, w, 7, client, n), inputs(t, w, 7, client, n)
				for i := range a {
					if !bytes.Equal(a[i], b[i]) {
						t.Fatalf("client %d request %d differs between two streams of seed 7", client, i)
					}
				}
				if other := inputs(t, w, 8, client, n); equalStreams(a, other) {
					t.Errorf("client %d: seeds 7 and 8 give the same stream", client)
				}
			}
			if equalStreams(inputs(t, w, 7, 0, n), inputs(t, w, 7, 1, n)) {
				t.Error("both clients send the same stream")
			}
		})
	}
}

func equalStreams(a, b [][]byte) bool {
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke runs every workload in both modes and warms the pool five times per pool workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		if _, err := workloadByName(sw.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(config{
					workload: w,
					seed:     3,
					duration: 300 * time.Millisecond,
					trace:    traced,
					spanFile: filepath.Join(t.TempDir(), "spans.tsv"),
				}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if !traced && res.Metrics["success_ratio"].Value != 1 {
					t.Errorf("error rate is not 0: success_ratio=%v", res.Metrics["success_ratio"].Value)
				}
				for m, unit := range want {
					got, ok := res.Metrics[m]
					if !ok {
						t.Errorf("metric %s missing", m)
					} else if got.Unit != unit {
						t.Errorf("metric %s has unit %q, want %q", m, got.Unit, unit)
					}
				}
				for m := range res.Metrics {
					if _, ok := want[m]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", m)
					}
				}
			})
		}
	}
}
