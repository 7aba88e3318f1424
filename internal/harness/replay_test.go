package harness

import (
	"bytes"
	"context"
	"testing"
	"time"

	"crsharing/internal/service"
)

// recordSeededRun drives the in-process backend with a short multi-tenant
// mixed load, recording every arrival, and returns the recording.
func recordSeededRun(t *testing.T, backend *service.Backend) *Recording {
	t.Helper()
	rec := NewRecorder()
	d, err := NewDriver(Config{
		BaseURL:  backend.URL,
		Corpus:   BuildCorpus(11),
		Mix:      Mix{Solve: 6, Batch: 2, Jobs: 2},
		Duration: 500 * time.Millisecond,
		Tenants: []TenantLoad{
			{Name: "gold", Weight: 2, Rate: 200},
			{Name: "free", Weight: 1, Rate: 100},
		},
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ViolationCount != 0 {
		t.Fatalf("recorded run had violations: %v", rep.Violations)
	}
	recording := rec.Recording(11)
	if len(recording.Entries) == 0 {
		t.Fatal("recorded run captured no arrivals")
	}
	return recording
}

// replayOnce re-issues the recording against the backend at high speed,
// re-recording the replayed arrivals, and returns the new recording and the
// run report.
func replayOnce(t *testing.T, backend *service.Backend, recording *Recording) (*Recording, *Report) {
	t.Helper()
	rec := NewRecorder()
	d, err := NewDriver(Config{
		BaseURL:     backend.URL,
		Replay:      recording,
		ReplaySpeed: 50,
		MaxInflight: 4096,
		Recorder:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rec.Recording(recording.Seed), rep
}

// sameSequence checks two recordings issue the identical request stream:
// class, tenant and fingerprint order, entry for entry. Offsets and outcomes
// are wall-clock and may differ.
func sameSequence(t *testing.T, a, b *Recording) {
	t.Helper()
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("request streams differ in length: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		ea, eb := &a.Entries[i], &b.Entries[i]
		if ea.Class != eb.Class || ea.Tenant != eb.Tenant {
			t.Fatalf("entry %d differs: %s/%s vs %s/%s", i, ea.Class, ea.Tenant, eb.Class, eb.Tenant)
		}
		if len(ea.Fingerprints) != len(eb.Fingerprints) {
			t.Fatalf("entry %d payload size differs: %d vs %d", i, len(ea.Fingerprints), len(eb.Fingerprints))
		}
		for j := range ea.Fingerprints {
			if ea.Fingerprints[j] != eb.Fingerprints[j] {
				t.Fatalf("entry %d fingerprint %d differs: %s vs %s", i, j, ea.Fingerprints[j], eb.Fingerprints[j])
			}
		}
	}
}

// TestReplayDeterminism is the satellite regression: record a seeded run,
// replay it twice, and assert both replays re-issue the identical request
// sequence (the recorded one) with every replayed schedule revalidating.
func TestReplayDeterminism(t *testing.T) {
	backend := serve(t, testOptions())
	recording := recordSeededRun(t, backend)

	first, repA := replayOnce(t, backend, recording)
	second, repB := replayOnce(t, backend, recording)

	sameSequence(t, recording, first)
	sameSequence(t, first, second)

	for name, rep := range map[string]*Report{"first": repA, "second": repB} {
		if !rep.Replayed {
			t.Errorf("%s replay report not marked replayed", name)
		}
		if rep.ViolationCount != 0 {
			t.Errorf("%s replay had oracle violations: %v", name, rep.Violations)
		}
		if rep.Validated == 0 {
			t.Errorf("%s replay validated nothing", name)
		}
		if rep.Seed != recording.Seed {
			t.Errorf("%s replay report seed %d, want %d", name, rep.Seed, recording.Seed)
		}
	}

	// The replayed stream is also bit-exact on disk: re-recording a replay
	// and encoding it reproduces the original entry payloads byte for byte
	// once the wall-clock fields (offset, outcome) are normalised.
	norm := func(r *Recording) []byte {
		c := &Recording{Seed: r.Seed, Entries: append([]Entry(nil), r.Entries...)}
		for i := range c.Entries {
			c.Entries[i].OffsetNS = 0
			c.Entries[i].Outcome = ""
		}
		data, err := c.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(norm(recording), norm(first)) {
		t.Fatal("replayed request stream is not bit-exact against the recording")
	}
}

// TestReplayTotalsMatchRecording replays a recording and checks the report
// accounts for it exactly: every recorded arrival is one request, per class
// and per tenant, each with one latency sample, and the /metrics scrape
// around the run carries the cache accounting.
func TestReplayTotalsMatchRecording(t *testing.T) {
	backend := serve(t, testOptions())
	recording := recordSeededRun(t, backend)
	_, rep := replayOnce(t, backend, recording)

	classes := map[string]int{}
	tenants := map[string]int{}
	for _, e := range recording.Entries {
		classes[e.Class]++
		tenants[e.Tenant]++
	}
	if rep.Requests != len(recording.Entries) {
		t.Errorf("requests %d, want %d (the recording length)", rep.Requests, len(recording.Entries))
	}
	if rep.Shed != 0 {
		t.Errorf("replay shed %d arrivals", rep.Shed)
	}
	if rep.ViolationCount != 0 {
		t.Errorf("violations: %v", rep.Violations)
	}
	for class, n := range classes {
		cs := rep.Classes[class]
		if cs == nil {
			t.Errorf("class %s missing from the report", class)
			continue
		}
		if cs.Requests != n || cs.Latency.Count != n {
			t.Errorf("class %s: %d requests, %d latency samples, want %d", class, cs.Requests, cs.Latency.Count, n)
		}
	}
	for tenant, n := range tenants {
		if ts := rep.Tenants[tenant]; ts == nil || ts.Requests != n {
			t.Errorf("tenant %s: %+v, want %d requests", tenant, ts, n)
		}
	}
	if rep.Cache.FreshSolves+rep.Cache.CacheServed == 0 {
		t.Error("replay report lost the cache accounting")
	}
}
