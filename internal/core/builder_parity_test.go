package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/harness"
)

// builderView is what the parity picks read of a builder; both Builder and
// the reference implement it.
type builderView interface {
	NumProcessors() int
	Active(i int) bool
	RemainingJobs(i int) int
	DemandThisStep(i int) float64
}

// demandPick serves processors with more remaining jobs first, each up to
// its demand, writing into buf (reused across steps, as greedybalance does)
// and returning it, or a slice one short of the processors when short is
// set, which AppendStep pads.
func demandPick(b builderView, buf []float64, short bool) []float64 {
	clear(buf)
	most := 0
	for i := 0; i < b.NumProcessors(); i++ {
		most = max(most, b.RemainingJobs(i))
	}
	avail := 1.0
	for left := most; left > 0; left-- {
		for i := 0; i < b.NumProcessors(); i++ {
			if b.Active(i) && b.RemainingJobs(i) == left && avail > 0 {
				give := math.Min(avail, b.DemandThisStep(i))
				buf[i] = give
				avail -= give
			}
		}
	}
	if short && len(buf) > 0 {
		return buf[:len(buf)-1]
	}
	return buf
}

// sameSchedule compares two schedules bit for bit, row widths included.
func sameSchedule(a, b *core.Schedule) error {
	if len(a.Alloc) != len(b.Alloc) {
		return fmt.Errorf("%d steps, reference %d", len(a.Alloc), len(b.Alloc))
	}
	for t := range a.Alloc {
		if len(a.Alloc[t]) != len(b.Alloc[t]) || cap(a.Alloc[t]) != cap(b.Alloc[t]) {
			return fmt.Errorf("step %d: len/cap %d/%d, reference %d/%d", t, len(a.Alloc[t]), cap(a.Alloc[t]), len(b.Alloc[t]), cap(b.Alloc[t]))
		}
		for i := range a.Alloc[t] {
			if math.Float64bits(a.Alloc[t][i]) != math.Float64bits(b.Alloc[t][i]) {
				return fmt.Errorf("R_%d(%d) = %v, reference %v", i, t, a.Alloc[t][i], b.Alloc[t][i])
			}
		}
	}
	return nil
}

// sameBuilderState compares every state accessor of the two builders.
func sameBuilderState(b *core.Builder, ref *refBuilder) error {
	if b.Instance() != ref.Instance() || b.Step() != ref.Step() || b.Done() != ref.Done() || b.NumProcessors() != ref.NumProcessors() ||
		math.Float64bits(b.TotalDemandThisStep()) != math.Float64bits(ref.TotalDemandThisStep()) {
		return fmt.Errorf("step/done/procs/demand %d %v %d %v, reference %d %v %d %v",
			b.Step(), b.Done(), b.NumProcessors(), b.TotalDemandThisStep(),
			ref.Step(), ref.Done(), ref.NumProcessors(), ref.TotalDemandThisStep())
	}
	for i := 0; i < b.NumProcessors(); i++ {
		if b.Active(i) != ref.Active(i) || b.ActiveJob(i) != ref.ActiveJob(i) || b.RemainingJobs(i) != ref.RemainingJobs(i) ||
			math.Float64bits(b.RemainingWork(i)) != math.Float64bits(ref.RemainingWork(i)) ||
			math.Float64bits(b.RemainingVolume(i)) != math.Float64bits(ref.RemainingVolume(i)) ||
			math.Float64bits(b.DemandThisStep(i)) != math.Float64bits(ref.DemandThisStep(i)) {
			return fmt.Errorf("step %d proc %d: state differs from the reference", b.Step(), i)
		}
	}
	return nil
}

// builderParity replays sched's rows on a Builder and on the reference,
// comparing their state after every step and the schedules they return,
// then runs BuildGreedy on both with state-driven picks.
func builderParity(inst *core.Instance, sched *core.Schedule) error {
	for _, b := range builders(inst) {
		ref := newRefBuilder(inst)
		for t, row := range sched.Alloc {
			b.AppendStep(row)
			ref.AppendStep(row)
			if err := sameBuilderState(b, ref); err != nil {
				return fmt.Errorf("replay step %d: %v", t, err)
			}
			if err := sameSchedule(b.Schedule(), ref.Schedule()); err != nil {
				return fmt.Errorf("replay step %d: Schedule: %v", t, err)
			}
		}
	}
	for _, short := range []bool{false, true} {
		for _, b := range builders(inst) {
			ref := newRefBuilder(inst)
			buf, refBuf := make([]float64, inst.NumProcessors()), make([]float64, inst.NumProcessors())
			got := b.BuildGreedy(func(b *core.Builder) []float64 { return demandPick(b, buf, short) })
			want := ref.BuildGreedy(func(ref *refBuilder) []float64 { return demandPick(ref, refBuf, short) })
			if err := sameSchedule(got, want); err != nil {
				return fmt.Errorf("BuildGreedy (short rows %v): %v", short, err)
			}
			if err := sameSchedule(&core.Schedule{Alloc: b.Rows()}, want); err != nil {
				return fmt.Errorf("BuildGreedy (short rows %v): Rows: %v", short, err)
			}
			if err := sameBuilderState(b, ref); err != nil {
				return fmt.Errorf("BuildGreedy (short rows %v): %v", short, err)
			}
		}
	}
	// A pick that assigns nothing runs into the safety cap.
	got := core.NewBuilder(inst).BuildGreedy(func(*core.Builder) []float64 { return nil })
	want := newRefBuilder(inst).BuildGreedy(func(*refBuilder) []float64 { return nil })
	if err := sameSchedule(got, want); err != nil {
		return fmt.Errorf("starved BuildGreedy: %v", err)
	}
	return nil
}

// shared is Reset for every instance builderParity checks, so its builds
// reuse the rows of earlier, wider, narrower, longer and shorter ones.
var shared core.Builder

// builders returns a fresh builder for inst and the shared one, Reset for
// inst.
func builders(inst *core.Instance) []*core.Builder {
	shared.Reset(inst)
	return []*core.Builder{core.NewBuilder(inst), &shared}
}

// TestBuilderParity holds Builder to the reference on the load harness's
// corpus (seeds 1-3) and on random edge-case instances and schedules, both
// fresh and Reset from the instance before.
func TestBuilderParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, item := range harness.BuildCorpus(seed).Items() {
			for _, sched := range corpusSchedules(t, item.Inst) {
				if err := builderParity(item.Inst, sched); err != nil {
					t.Fatalf("%v\n%v", err, item.Inst)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(25))
	for n := 0; n < 2000; n++ {
		inst, sched := edgeCase(rng)
		if err := builderParity(inst, sched); err != nil {
			t.Fatalf("%v\n%v\n%v", err, inst, sched)
		}
	}
}

// TestBuilderScheduleIsExactSize: the schedule a Builder returns has
// exactly as many rows as steps, each exactly as wide as the instance, so a
// cached schedule pins none of the builder's spare rows.
func TestBuilderScheduleIsExactSize(t *testing.T) {
	inst := core.NewInstance([]float64{0.5, 0.5, 0.5}, []float64{0.5, 0.5, 0.5})
	b := core.NewBuilder(inst)
	for !b.Done() {
		b.AppendStep([]float64{0.5, 0.5})
	}
	sched := b.Schedule()
	if sched.Steps() != 3 || cap(sched.Alloc) != sched.Steps() {
		t.Fatalf("%d steps in a slice of capacity %d, want 3", sched.Steps(), cap(sched.Alloc))
	}
	for step, row := range sched.Alloc {
		if len(row) != 2 || cap(row) != 2 {
			t.Fatalf("step %d: row length/capacity %d/%d for 2 processors", step, len(row), cap(row))
		}
	}
}
