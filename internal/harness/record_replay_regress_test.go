package harness

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"
)

// TestRecordingSortsShardedCapture is the deterministic half of the
// interleaved-recording bugfix: a multi-tenant run's arrival loops book
// arrivals into one Recorder in lock-acquisition order, which is NOT offset
// order. Recording() must sort
// by offset (Seq breaking ties, preserving booking order) and renumber Seq
// densely, or replaying the capture re-issues the out-of-order offsets as an
// immediate burst and decode's dense-Seq check fails.
func TestRecordingSortsShardedCapture(t *testing.T) {
	items := BuildCorpus(3).Items()[:1]
	rec := NewRecorder()
	// The interleaving two concurrent tenant loops would produce: out-of-order
	// offsets, including a tie (both loops booked an arrival at 10ms).
	offsets := []time.Duration{
		30 * time.Millisecond,
		10 * time.Millisecond,
		20 * time.Millisecond,
		10 * time.Millisecond,
	}
	for _, off := range offsets {
		rec.arrive(off, ClassSolve, "", items)
	}
	recording := rec.Recording(3)

	wantOffsets := []int64{
		int64(10 * time.Millisecond), // booked second
		int64(10 * time.Millisecond), // booked fourth: the tie keeps booking order
		int64(20 * time.Millisecond),
		int64(30 * time.Millisecond),
	}
	for i, e := range recording.Entries {
		if e.Seq != i {
			t.Errorf("entry %d has Seq %d, want dense renumbering", i, e.Seq)
		}
		if e.OffsetNS != wantOffsets[i] {
			t.Errorf("entry %d offset = %dns, want %dns (sorted by arrival)", i, e.OffsetNS, wantOffsets[i])
		}
	}
	// The sorted capture survives the decoder's dense-Seq validation.
	data, err := recording.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecording(bytes.NewReader(data)); err != nil {
		t.Fatalf("sorted sharded capture does not decode: %v", err)
	}
	// The snapshot did not disturb the live recorder: outcomes still attach
	// to the original booking sequence.
	rec.finish(0, OutcomeOK)
	if got := rec.Recording(3).Entries[3].Outcome; got != OutcomeOK {
		t.Errorf("outcome for booking Seq 0 (offset 30ms, sorted last) = %q, want %q", got, OutcomeOK)
	}
}

// TestShardedRecordReplaysMonotone is the end-to-end regression for the
// interleaved-recording bug: record a 4-tenant run (whose per-tenant
// arrival loops interleave arrivals into the shared recorder out of offset
// order), then replay the capture and assert the replay re-issues a
// monotone schedule identical to the recording request-for-request.
func TestShardedRecordReplaysMonotone(t *testing.T) {
	backend := serve(t, testOptions())
	rec := NewRecorder()
	tenants := make([]TenantLoad, 4)
	for i := range tenants {
		tenants[i] = TenantLoad{Name: fmt.Sprintf("t%d", i), Weight: 1, Rate: 100}
	}
	d, err := NewDriver(Config{
		BaseURL:  backend.URL,
		Corpus:   BuildCorpus(17),
		Mix:      Mix{Solve: 1},
		Duration: 400 * time.Millisecond,
		Tenants:  tenants,
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
	recording := rec.Recording(17)
	if len(recording.Entries) < 8 {
		t.Fatalf("run captured only %d arrivals", len(recording.Entries))
	}
	for i := range recording.Entries {
		if recording.Entries[i].Seq != i {
			t.Fatalf("entry %d has Seq %d, want dense", i, recording.Entries[i].Seq)
		}
		if i > 0 && recording.Entries[i].OffsetNS < recording.Entries[i-1].OffsetNS {
			t.Fatalf("capture is not offset-sorted at entry %d (%d < %d)",
				i, recording.Entries[i].OffsetNS, recording.Entries[i-1].OffsetNS)
		}
	}

	replayed, replayRep := replayOnce(t, backend, recording)
	sameSequence(t, recording, replayed)
	for i := 1; i < len(replayed.Entries); i++ {
		if replayed.Entries[i].OffsetNS < replayed.Entries[i-1].OffsetNS {
			t.Fatalf("replay re-issued a non-monotone schedule at entry %d", i)
		}
	}
	if replayRep.ViolationCount != 0 {
		t.Fatalf("replay had violations: %v", replayRep.Violations)
	}
	// The replay report states the recording-derived offered rate, not the
	// (ignored) cfg.Rate default.
	var maxOff int64
	for i := range recording.Entries {
		if off := recording.Entries[i].OffsetNS; off > maxOff {
			maxOff = off
		}
	}
	want := float64(len(recording.Entries)) / (time.Duration(float64(maxOff) / 50).Seconds())
	if got := replayRep.RatePerSec; got < want*0.99 || got > want*1.01 {
		t.Errorf("replay RatePerSec = %g, want the recording-derived %g", got, want)
	}
}

// TestOfferedRate pins the offered-load accounting: a multi-tenant run offers
// the SUM of the tenant rates (zero-rate tenants fall back to the global
// rate), a replay offers the recording-derived rate scaled by ReplaySpeed,
// and a plain run offers cfg.Rate.
func TestOfferedRate(t *testing.T) {
	corpus := BuildCorpus(1)

	plain, err := NewDriver(Config{BaseURL: "http://unused", Corpus: corpus, Rate: 123})
	if err != nil {
		t.Fatal(err)
	}
	if got := plain.offeredRate(time.Second); got != 123 {
		t.Errorf("plain offered rate = %g, want 123", got)
	}

	tenants, err := NewDriver(Config{
		BaseURL: "http://unused", Corpus: corpus, Rate: 40,
		Tenants: []TenantLoad{{Name: "gold", Rate: 150}, {Name: "free"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tenants.offeredRate(time.Second); got != 190 {
		t.Errorf("tenant offered rate = %g, want 150+40=190 (zero-rate tenant uses the global rate)", got)
	}

	// 101 arrivals spread over 1s of recorded time, replayed 2x compressed:
	// the offered rate is 101 requests / 0.5s.
	rec := &Recording{Seed: 1}
	for i := 0; i <= 100; i++ {
		rec.Entries = append(rec.Entries, Entry{Seq: i, OffsetNS: int64(i) * int64(10*time.Millisecond)})
	}
	replay, err := NewDriver(Config{BaseURL: "http://unused", Replay: rec, ReplaySpeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := replay.offeredRate(0), 202.0; got != want {
		t.Errorf("replay offered rate = %g, want %g", got, want)
	}

	// A recording with all-zero offsets falls back to the run's wall time.
	burst := &Recording{Seed: 1, Entries: []Entry{{}, {Seq: 1}, {Seq: 2}, {Seq: 3}}}
	bd, err := NewDriver(Config{BaseURL: "http://unused", Replay: burst})
	if err != nil {
		t.Fatal(err)
	}
	if got := bd.offeredRate(2 * time.Second); got != 2 {
		t.Errorf("burst replay offered rate = %g, want 4 entries / 2s = 2", got)
	}
}
