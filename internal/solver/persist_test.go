package solver

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crsharing/internal/core"
)

func persistInstances(n int) []*core.Instance {
	out := make([]*core.Instance, n)
	for i := range out {
		out[i] = core.NewInstance([]float64{float64(i+1) / float64(n+1), 0.5}, []float64{0.25})
	}
	return out
}

// TestPersistRoundTrip is the warm-start contract: evaluations memoised by
// one cache are flushed to disk and answer from SourceCache in a brand-new
// cache, without invoking the solver again.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	insts := persistInstances(5)

	warm := NewCache(4, 64)
	s := &stubSolver{name: "stub"}
	for _, inst := range insts {
		if _, _, err := warm.Evaluate(context.Background(), s, inst); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPersister(warm, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // final flush without ever starting the loop
		t.Fatal(err)
	}

	cold := NewCache(4, 64)
	p2, err := NewPersister(cold, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	rep, err := p2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != len(insts) || rep.Quarantined != 0 || rep.Skipped != 0 {
		t.Fatalf("load report = %+v, want %d restored", rep, len(insts))
	}
	fresh := &stubSolver{name: "stub"}
	for _, inst := range insts {
		ev, src, err := cold.Evaluate(context.Background(), fresh, inst)
		if err != nil {
			t.Fatal(err)
		}
		if src != SourceCache {
			t.Fatalf("restored entry answered from %q, want %q", src, SourceCache)
		}
		if ev == nil || ev.Schedule == nil {
			t.Fatal("restored evaluation lost its schedule")
		}
	}
	if fresh.calls.Load() != 0 {
		t.Fatalf("solver ran %d times against a warm cache", fresh.calls.Load())
	}
}

// TestPersistShardCountChange re-loads a snapshot into a cache with a
// different shard count: fingerprints are recomputed on load, so entries land
// in the right shard and stale high-index shard files are removed.
func TestPersistShardCountChange(t *testing.T) {
	dir := t.TempDir()
	insts := persistInstances(6)
	warm := NewCache(4, 64)
	s := &stubSolver{name: "stub"}
	for _, inst := range insts {
		if _, _, err := warm.Evaluate(context.Background(), s, inst); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPersister(warm, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	cold := NewCache(1, 64)
	p2, err := NewPersister(cold, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	rep, err := p2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != len(insts) {
		t.Fatalf("restored %d of %d across a shard-count change", rep.Restored, len(insts))
	}
	fresh := &stubSolver{name: "stub"}
	for _, inst := range insts {
		if _, src, err := cold.Evaluate(context.Background(), fresh, inst); err != nil || src != SourceCache {
			t.Fatalf("lookup after reshard: src=%q err=%v", src, err)
		}
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "shard-00[1-9].json"))
	if len(stale) != 0 {
		t.Fatalf("stale shard files survived the reshard: %v", stale)
	}
}

// TestPersistQuarantinesCorruptFiles: undecodable or wrong-version shard
// files must not abort startup — they are renamed aside and counted, and the
// healthy shards still load.
func TestPersistQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	insts := persistInstances(3)
	warm := NewCache(4, 64)
	s := &stubSolver{name: "stub"}
	for _, inst := range insts {
		if _, _, err := warm.Evaluate(context.Background(), s, inst); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPersister(warm, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one real shard and plant one wrong-version file.
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shard files written: %v", err)
	}
	if err := os.WriteFile(files[0], []byte("{torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	wrong := filepath.Join(dir, "shard-099.json")
	if err := os.WriteFile(wrong, []byte(`{"version":99,"entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cold := NewCache(4, 64)
	p2, err := NewPersister(cold, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	rep, err := p2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 2 {
		t.Fatalf("quarantined %d files, want 2 (report %+v)", rep.Quarantined, rep)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(quarantined) != 2 {
		t.Fatalf("expected 2 .corrupt files, found %v", quarantined)
	}
	if got := cold.Stats().Entries; got+rep.Restored == 0 || rep.Restored != got {
		t.Fatalf("healthy shards not restored: report=%+v entries=%d", rep, got)
	}
}

// TestPersistSnapshotDurabilityAndListing pins the crash-durability fixes:
// snapshots land world-readable (0644, not os.CreateTemp's 0600), no temp
// files survive a flush, and SnapshotFiles lists only real snapshots —
// quarantined *.corrupt files are not snapshots and must not appear.
func TestPersistSnapshotDurabilityAndListing(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(2, 64)
	s := &stubSolver{name: "stub"}
	for _, inst := range persistInstances(4) {
		if _, _, err := c.Evaluate(context.Background(), s, inst); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPersister(c, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(dir, "shard-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no shard files written: %v", err)
	}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := info.Mode().Perm(); got != 0o644 {
			t.Fatalf("%s mode = %o, want 644 (snapshots must not inherit CreateTemp's 0600)", f, got)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".shard-*.tmp-*")); len(tmps) != 0 {
		t.Fatalf("temp files survived the flush: %v", tmps)
	}

	// Plant a quarantined file and a leftover temp named the way
	// durable.WriteFile names them: only *.json snapshots list.
	if err := os.WriteFile(filepath.Join(dir, "shard-000.json.corrupt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".shard-000.json.tmp-stray"), []byte("junk"), 0o600); err != nil {
		t.Fatal(err)
	}
	listed, err := p.SnapshotFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range listed {
		if !strings.HasSuffix(name, ".json") {
			t.Fatalf("SnapshotFiles listed %q, which is not a snapshot", name)
		}
	}
	if want := len(files); len(listed) != want {
		t.Fatalf("SnapshotFiles listed %d files (%v), want the %d real snapshots", len(listed), listed, want)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistPeriodicFlush: a started persister writes snapshots on its own
// tick, not only at Close.
func TestPersistPeriodicFlush(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(2, 64)
	p, err := NewPersister(c, dir, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	if _, _, err := c.Evaluate(context.Background(), &stubSolver{name: "stub"}, core.NewInstance([]float64{0.5})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if files, _ := filepath.Glob(filepath.Join(dir, "shard-*.json")); len(files) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot appeared within 5s of a 10ms flush interval")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
