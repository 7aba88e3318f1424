package core

import (
	"fmt"
	"math"
	"testing"
)

func TestFingerprintDeterministic(t *testing.T) {
	a := NewInstance([]float64{0.3, 0.7}, []float64{0.5})
	b := NewInstance([]float64{0.3, 0.7}, []float64{0.5})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical instances must share a fingerprint")
	}
	if a.Fingerprint() != a.Clone().Fingerprint() {
		t.Fatal("clone must share the fingerprint")
	}
}

func TestFingerprintProcessorOrderNormalized(t *testing.T) {
	a := NewInstance([]float64{0.3, 0.7}, []float64{0.5}, []float64{0.9, 0.1})
	b := NewInstance([]float64{0.9, 0.1}, []float64{0.3, 0.7}, []float64{0.5})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("permuting processors must not change the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := NewInstance([]float64{0.3, 0.7}, []float64{0.5})
	fp := base.Fingerprint()
	cases := map[string]*Instance{
		"job requirement": NewInstance([]float64{0.3, 0.6}, []float64{0.5}),
		"job order":       NewInstance([]float64{0.7, 0.3}, []float64{0.5}),
		"job moved":       NewInstance([]float64{0.3}, []float64{0.5, 0.7}),
		"extra processor": NewInstance([]float64{0.3, 0.7}, []float64{0.5}, nil),
		"job size": NewSizedInstance(
			[]Job{{Req: 0.3, Size: 2}, {Req: 0.7, Size: 1}},
			[]Job{{Req: 0.5, Size: 1}}),
	}
	for name, inst := range cases {
		if inst.Fingerprint() == fp {
			t.Errorf("%s: change not reflected in fingerprint", name)
		}
	}
}

// TestFingerprintEmptyFraming pins down that empty processors are framed, so
// that e.g. {[], [0.5]} and {[0.5], []} agree while {[0.5]} differs.
func TestFingerprintEmptyFraming(t *testing.T) {
	withEmpty := NewInstance(nil, []float64{0.5})
	withEmptySwapped := NewInstance([]float64{0.5}, nil)
	without := NewInstance([]float64{0.5})
	if withEmpty.Fingerprint() != withEmptySwapped.Fingerprint() {
		t.Fatal("empty processor position must not matter")
	}
	if withEmpty.Fingerprint() == without.Fingerprint() {
		t.Fatal("an empty processor must still change the fingerprint")
	}
}

// TestFingerprintShard pins the shard key: deterministic across calls and
// permutations (it derives from the canonical fingerprint), in range, and
// reasonably spread over many distinct instances.
func TestFingerprintShard(t *testing.T) {
	a := NewInstance([]float64{0.3, 0.7}, []float64{0.5}, []float64{0.9, 0.1})
	b := NewInstance([]float64{0.9, 0.1}, []float64{0.3, 0.7}, []float64{0.5})
	if a.Fingerprint().Shard(7) != b.Fingerprint().Shard(7) {
		t.Fatal("permuted instances must land on the same shard")
	}
	if got, want := a.Fingerprint().Uint64(), a.Fingerprint().Uint64(); got != want {
		t.Fatal("Uint64 must be deterministic")
	}
	seen := make(map[int]bool)
	for i := 0; i < 64; i++ {
		inst := NewInstance([]float64{0.1 + float64(i)/1000})
		s := inst.Fingerprint().Shard(4)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range [0,4)", s)
		}
		seen[s] = true
	}
	if len(seen) < 4 {
		t.Fatalf("64 distinct instances only touched %d of 4 shards", len(seen))
	}
}

func TestFingerprintNegativeZero(t *testing.T) {
	a := NewInstance([]float64{0.0})
	b := NewInstance([]float64{math.Copysign(0, -1)})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("-0 and +0 requirements must agree on the fingerprint")
	}
}

// TestRemapScheduleProcs transfers a schedule between permuted-processor
// instances and checks the remapped schedule is valid for the target: this
// is what makes processor-order normalization of the fingerprint safe for a
// cache that hands back full schedules.
func TestRemapScheduleProcs(t *testing.T) {
	from := NewInstance([]float64{0.9, 0.9}, []float64{0.1})
	to := NewInstance([]float64{0.1}, []float64{0.9, 0.9})
	if from.Fingerprint() != to.Fingerprint() {
		t.Fatal("test invariant: permuted instances must share a fingerprint")
	}
	// A hand-built schedule for from: run the 0.9-jobs at full speed in
	// steps 1-2 with the 0.1 job alongside.
	sched := NewSchedule(2, 2)
	sched.Alloc[0] = []float64{0.9, 0.1}
	sched.Alloc[1] = []float64{0.9, 0.0}
	resFrom, err := Execute(from, sched)
	if err != nil || !resFrom.Finished() {
		t.Fatalf("schedule invalid for from: %v finished=%v", err, resFrom.Finished())
	}

	remapped := RemapScheduleProcs(from, to, sched)
	resTo, err := Execute(to, remapped)
	if err != nil {
		t.Fatalf("remapped schedule invalid for to: %v", err)
	}
	if !resTo.Finished() {
		t.Fatal("remapped schedule does not finish to's jobs")
	}
	if resTo.Makespan() != resFrom.Makespan() {
		t.Fatalf("makespan changed under remap: %d vs %d", resTo.Makespan(), resFrom.Makespan())
	}
	// The unremapped schedule must NOT finish to's jobs — otherwise this
	// test exercises nothing.
	if resBad, err := Execute(to, sched); err == nil && resBad.Finished() && resBad.Makespan() == resFrom.Makespan() {
		t.Fatal("test invariant: raw schedule should be misaligned for to")
	}

	// Identical ordering returns the schedule unchanged (same pointer).
	if RemapScheduleProcs(from, from.Clone(), sched) != sched {
		t.Fatal("equal instances must short-circuit the remap")
	}
}

// TestFingerprintDoesNotAllocate pins the in-place comparison and the stack
// buffers: hashing an instance of up to 32 processors and 2 KiB of
// serialization allocates nothing.
func TestFingerprintDoesNotAllocate(t *testing.T) {
	inst := gridInstance(6, 4)
	var sink Fingerprint
	if allocs := testing.AllocsPerRun(100, func() { sink = inst.fingerprint() }); allocs != 0 {
		t.Fatalf("fingerprint of a 6x4 instance allocates %.0f times, want 0", allocs)
	}
	if sink != inst.Fingerprint() {
		t.Fatal("fingerprint() and Fingerprint() disagree")
	}
}

// gridInstance builds an m x n unit-size instance with distinct rows.
func gridInstance(m, n int) *Instance {
	reqs := make([][]float64, m)
	for i := range reqs {
		for j := 0; j < n; j++ {
			reqs[i] = append(reqs[i], float64((i*7+j*3)%10+1)/11)
		}
	}
	return NewInstance(reqs...)
}

// BenchmarkFingerprint hashes an instance into its canonical fingerprint on
// every iteration (bypassing the per-instance memo): the cost every serving
// request pays once, at the size servebench's pool draws (6x4) and at a
// larger size (8x64).
func BenchmarkFingerprint(b *testing.B) {
	for _, sz := range []struct{ m, n int }{{6, 4}, {8, 64}} {
		inst := gridInstance(sz.m, sz.n)
		b.Run(fmt.Sprintf("m=%d/n=%d", sz.m, sz.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = inst.fingerprint()
			}
		})
	}
}

// BenchmarkCanonicalProcOrder measures the in-place row sort the cache's
// processor remap runs twice per permuted hit.
func BenchmarkCanonicalProcOrder(b *testing.B) {
	inst := gridInstance(6, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = inst.CanonicalProcOrder()
	}
}
