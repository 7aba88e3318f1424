package solver

import (
	"context"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
)

// nbrBase is the base instance the neighbor tests mutate: three processors,
// mixed requirements spread over several shape buckets.
func nbrBase() *core.Instance {
	return core.NewInstance(
		[]float64{0.9, 0.3, 0.5},
		[]float64{0.2, 0.6},
		[]float64{0.7, 0.1},
	)
}

func TestShapeOfBucketsRequirements(t *testing.T) {
	s := shapeOf(nbrBase())
	if s.procs != 3 {
		t.Fatalf("procs = %d, want 3", s.procs)
	}
	total := int32(0)
	for _, n := range s.jobs {
		total += n
	}
	if total != 7 {
		t.Fatalf("bucketed %d jobs, want 7", total)
	}
	// floor(req*8): 0.9→7, 0.3→2, 0.5→4, 0.2→1, 0.6→4, 0.7→5, 0.1→0.
	want := map[int]int32{7: 1, 2: 1, 4: 2, 1: 1, 5: 1, 0: 1}
	for b, n := range want {
		if s.jobs[b] != n {
			t.Fatalf("bucket %d = %d, want %d", b, s.jobs[b], n)
		}
	}
}

// TestProbeKeysReachSingleJobMutations pins the index's core invariant: the
// probe set of a single-job mutant contains the base instance's exact key,
// so a mutant's lookup finds what the base's solve filed.
func TestProbeKeysReachSingleJobMutations(t *testing.T) {
	base := nbrBase()
	baseKey := shapeOf(base).key("s")

	dropped := base.Clone()
	dropped.Procs[0] = dropped.Procs[0][1:] // drop the 0.9 job

	added := base.Clone()
	added.Procs[1] = append(added.Procs[1], core.UnitJob(0.4))

	sameBucket := base.Clone()
	sameBucket.Procs[0][1].Req = 0.34 // 0.3 → 0.34 stays in bucket 2

	for name, mutant := range map[string]*core.Instance{
		"dropped": dropped, "added": added, "nudged": sameBucket,
	} {
		found := false
		for _, k := range shapeOf(mutant).probeKeys("s") {
			if k == baseKey {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s mutant's probe keys miss the base key", name)
		}
	}
}

func solveFor(t *testing.T, inst *core.Instance) *core.Schedule {
	t.Helper()
	sched, err := greedybalance.New().Schedule(inst)
	if err != nil {
		t.Fatalf("greedy schedule: %v", err)
	}
	return sched
}

func TestAdaptScheduleTrimsWhenStillFinishing(t *testing.T) {
	base := nbrBase()
	sched := solveFor(t, base)
	// Nudge a requirement down: the old schedule over-provisions but still
	// finishes, so the adaptation is a trim to the executed makespan.
	variant := base.Clone()
	variant.Procs[0][0].Req = 0.85
	adapted, ok := AdaptSchedule(variant, sched)
	if !ok {
		t.Fatalf("AdaptSchedule failed on a still-feasible schedule")
	}
	res, err := core.Execute(variant, adapted)
	if err != nil || !res.Finished() {
		t.Fatalf("adapted schedule does not finish: %v", err)
	}
	if adapted.Steps() != res.Makespan() {
		t.Fatalf("adapted schedule has %d steps, executed makespan %d (not trimmed)", adapted.Steps(), res.Makespan())
	}
}

func TestAdaptScheduleExtendsForAddedWork(t *testing.T) {
	base := nbrBase()
	sched := solveFor(t, base)
	variant := base.Clone()
	variant.Procs[2] = append(variant.Procs[2], core.UnitJob(0.5))
	adapted, ok := AdaptSchedule(variant, sched)
	if !ok {
		t.Fatalf("AdaptSchedule failed to extend for an added job")
	}
	res, err := core.Execute(variant, adapted)
	if err != nil || !res.Finished() {
		t.Fatalf("extended schedule does not finish: %v", err)
	}
	if adapted.Steps() < sched.Steps() {
		t.Fatalf("extension shrank the schedule: %d < %d", adapted.Steps(), sched.Steps())
	}
}

func TestAdaptScheduleRejectsUnusable(t *testing.T) {
	base := nbrBase()
	sched := solveFor(t, base)
	if _, ok := AdaptSchedule(nil, sched); ok {
		t.Fatal("adapted a nil instance")
	}
	if _, ok := AdaptSchedule(base, nil); ok {
		t.Fatal("adapted a nil schedule")
	}
	narrow := core.NewInstance([]float64{0.5}) // fewer processors than the schedule
	if adapted, ok := AdaptSchedule(narrow, sched); ok {
		// A wider schedule can legally cover a narrower instance; if the
		// adaptation accepts it, the result must actually finish.
		if res, err := core.Execute(narrow, adapted); err != nil || !res.Finished() {
			t.Fatalf("accepted adaptation does not finish: %v", err)
		}
	}
}

// TestWarmHintFromNeighborIndex is the index end to end: a fresh solve files
// its evaluation, and a near-duplicate's miss-path lookup adapts it into a
// feasible hint.
func TestWarmHintFromNeighborIndex(t *testing.T) {
	cache := NewCache(2, 16)
	s := Adapt(greedybalance.New())
	base := nbrBase()
	if _, src, err := cache.Evaluate(context.Background(), s, base); err != nil || src != SourceSolve {
		t.Fatalf("seed solve: src=%v err=%v", src, err)
	}

	variant := base.Clone()
	variant.Procs[1] = variant.Procs[1][1:] // drop one job: shape key one bucket off
	hint, ok := cache.WarmHint(s.Name(), variant)
	if !ok {
		t.Fatalf("WarmHint found nothing for a single-job mutant")
	}
	res, err := core.Execute(variant, hint)
	if err != nil || !res.Finished() {
		t.Fatalf("warm hint is not feasible for the variant: %v", err)
	}

	// The hint must be owned by the caller, not an alias of the cached
	// evaluation's schedule.
	ev, src, err := cache.Evaluate(context.Background(), s, base)
	if err != nil || src != SourceCache {
		t.Fatalf("base re-solve: src=%v err=%v, want a cache hit", src, err)
	}
	if ev.Schedule == hint {
		t.Fatal("WarmHint returned the cached schedule itself")
	}
}

func TestWarmHintEmptyIndex(t *testing.T) {
	cache := NewCache(1, 4)
	if _, ok := cache.WarmHint("nobody", nbrBase()); ok {
		t.Fatal("WarmHint produced a hint from an empty index")
	}
}

// TestNeighborIndexEviction bounds the index: after filing far more keys than
// neighborMaxKeys, the oldest keys are gone and lookups on them are empty.
func TestNeighborIndexEviction(t *testing.T) {
	idx := newNeighborIndex()
	ev := &Evaluation{Schedule: core.NewSchedule(1, 1)}
	inst := core.NewInstance([]float64{0.5})
	for k := 0; k < neighborMaxKeys+10; k++ {
		idx.add(uint64(k), inst, ev)
	}
	if got := idx.lookup(0); got != nil {
		t.Fatalf("oldest key survived eviction: %v", got)
	}
	if got := idx.lookup(uint64(neighborMaxKeys + 9)); len(got) != 1 {
		t.Fatalf("newest key missing after eviction: %v", got)
	}
	if n := len(idx.rings); n > neighborMaxKeys {
		t.Fatalf("index holds %d keys, cap is %d", n, neighborMaxKeys)
	}
}
