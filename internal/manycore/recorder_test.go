package manycore

import (
	"strings"
	"testing"
)

func TestRecorderCapturesEveryTick(t *testing.T) {
	w := singleTaskWorkload(2,
		NewTask("io", ioPhase(0.6, 2)),
		NewTask("bg", computePhase(0, 3)),
	)
	rec := NewRecorder(0)
	m, err := Run(w, WaterFill{}, rec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rec.Ticks) != m.Ticks {
		t.Fatalf("recorded %d ticks, simulation took %d", len(rec.Ticks), m.Ticks)
	}
	// The compute task needs no bandwidth but still progresses at full speed.
	first := rec.Ticks[0]
	if first.Progress[1] < 0.99 {
		t.Fatalf("compute core should progress at full speed, got %v", first.Progress[1])
	}
	if first.Task[0] != "io" || first.Task[1] != "bg" {
		t.Fatalf("task names not recorded: %v", first.Task)
	}
}

func TestRecorderTimelineAndCSV(t *testing.T) {
	w := singleTaskWorkload(2,
		NewTask("heavy", ioPhase(1.0, 3)),
		NewTask("light", ioPhase(0.2, 1)),
	)
	rec := NewRecorder(0)
	if _, err := Run(w, GreedyBalance{}, rec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	timeline := rec.Timeline()
	if !strings.Contains(timeline, "core  0") || !strings.Contains(timeline, "#") {
		t.Fatalf("timeline malformed:\n%s", timeline)
	}
	csv := rec.BandwidthCSV()
	if !strings.HasPrefix(csv, "tick,core0,core1") {
		t.Fatalf("CSV header malformed:\n%s", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(rec.Ticks)+1 {
		t.Fatalf("CSV should have one line per tick plus a header")
	}
}

func TestRecorderMaxTicks(t *testing.T) {
	w := singleTaskWorkload(1, NewTask("long", ioPhase(0.5, 10)))
	rec := NewRecorder(3)
	if _, err := Run(w, WaterFill{}, rec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rec.Ticks) != 3 {
		t.Fatalf("recorder should cap at 3 ticks, got %d", len(rec.Ticks))
	}
	if rec.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", rec.Dropped)
	}
	if !strings.Contains(rec.Timeline(), "further ticks not recorded") {
		t.Fatalf("timeline should mention dropped ticks")
	}
}

func TestRecorderEmpty(t *testing.T) {
	rec := NewRecorder(0)
	if rec.Timeline() != "(no ticks recorded)\n" || rec.BandwidthCSV() != "" {
		t.Fatalf("empty recorder rendering malformed")
	}
}

func TestRecorderMarksStarvedCores(t *testing.T) {
	// FCFS gives everything to core 0 first; core 1's bandwidth-hungry phase
	// is starved ('!') while core 0 runs.
	w := singleTaskWorkload(2,
		NewTask("first", ioPhase(1.0, 2)),
		NewTask("second", ioPhase(1.0, 2)),
	)
	rec := NewRecorder(0)
	if _, err := Run(w, FirstComeFirstServed{}, rec); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(rec.Timeline(), "!") {
		t.Fatalf("expected a starvation marker in the timeline:\n%s", rec.Timeline())
	}
}
