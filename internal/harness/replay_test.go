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

// TestShardedReplayTotalsMatch is the acceptance check for distributed drive:
// replaying one recording through a 4-shard fleet yields the same totals as a
// 1-shard replay — same requests, same per-class and per-tenant counts.
func TestShardedReplayTotalsMatch(t *testing.T) {
	backend := serve(t, testOptions())
	recording := recordSeededRun(t, backend)

	run := func(shards int) *Report {
		rep, err := RunFleet(context.Background(), Config{
			BaseURL:     backend.URL,
			Replay:      recording,
			ReplaySpeed: 50,
			MaxInflight: 4096,
		}, shards)
		if err != nil {
			t.Fatalf("%d-shard replay: %v", shards, err)
		}
		return rep
	}
	single := run(1)
	fleet := run(4)

	if fleet.Shards != 4 {
		t.Errorf("merged report shards = %d, want 4", fleet.Shards)
	}
	if single.Requests != len(recording.Entries) || fleet.Requests != len(recording.Entries) {
		t.Errorf("requests: single=%d fleet=%d, want %d (the recording length)",
			single.Requests, fleet.Requests, len(recording.Entries))
	}
	if single.Shed != 0 || fleet.Shed != 0 {
		t.Errorf("replay shed arrivals: single=%d fleet=%d", single.Shed, fleet.Shed)
	}
	if single.ViolationCount != 0 || fleet.ViolationCount != 0 {
		t.Errorf("violations: single=%v fleet=%v", single.Violations, fleet.Violations)
	}
	for class, scs := range single.Classes {
		fcs := fleet.Classes[class]
		if fcs == nil {
			t.Errorf("class %s missing from merged report", class)
			continue
		}
		if scs.Requests != fcs.Requests {
			t.Errorf("class %s requests: single=%d fleet=%d", class, scs.Requests, fcs.Requests)
		}
		if scs.Latency.Count != fcs.Latency.Count {
			t.Errorf("class %s latency count: single=%d fleet=%d", class, scs.Latency.Count, fcs.Latency.Count)
		}
	}
	for tenant, sts := range single.Tenants {
		fts := fleet.Tenants[tenant]
		if fts == nil || sts.Requests != fts.Requests {
			t.Errorf("tenant %s requests: single=%+v fleet=%+v", tenant, sts, fts)
		}
	}
	// The fleet shares the server, so its cache accounting comes from one
	// whole-fleet scrape and must balance: every request stream issues the
	// same instances, so fresh solves + cache hits both cover the stream.
	if fleet.Cache.FreshSolves+fleet.Cache.CacheServed == 0 {
		t.Error("merged fleet report lost the cache accounting")
	}
}

// TestShardCorpusPartition checks the deterministic corpus split: shards are
// disjoint, their union is the corpus, and resharding is reproducible.
func TestShardCorpusPartition(t *testing.T) {
	corpus := BuildCorpus(3)
	const shards = 4
	total := 0
	seen := make(map[string]int)
	for _, it := range corpus.Items() {
		seen[it.Family+"/"+it.Inst.Fingerprint().String()] = 0
	}
	for s := 0; s < shards; s++ {
		part := ShardCorpus(corpus, s, shards)
		if part.Seed != corpus.Seed {
			t.Fatalf("shard %d dropped the seed", s)
		}
		again := ShardCorpus(corpus, s, shards)
		for i, it := range part.Items() {
			key := it.Family + "/" + it.Inst.Fingerprint().String()
			if _, ok := seen[key]; !ok {
				t.Fatalf("shard %d invented item %s", s, key)
			}
			seen[key]++
			if a := again.Items()[i]; a.Family != it.Family || a.Inst != it.Inst {
				t.Fatalf("resharding shard %d is not reproducible at item %d", s, i)
			}
			total++
		}
		for _, fam := range part.Families {
			if len(fam.Instances) == 0 {
				t.Fatalf("shard %d kept empty family %s", s, fam.Name)
			}
		}
	}
	if total != len(corpus.Items()) {
		t.Fatalf("shards cover %d of %d items", total, len(corpus.Items()))
	}
	// The adversarial-dup family holds fingerprint-identical instances, so a
	// fingerprint key may legitimately be hit more than once — but the count
	// per key must match the corpus's own multiplicity.
	mult := make(map[string]int)
	for _, it := range corpus.Items() {
		mult[it.Family+"/"+it.Inst.Fingerprint().String()]++
	}
	for key, n := range seen {
		if n != mult[key] {
			t.Fatalf("item %s appears %d times across shards, want %d", key, n, mult[key])
		}
	}
}
