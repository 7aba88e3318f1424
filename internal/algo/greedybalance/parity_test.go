package greedybalance_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/harness"
	"crsharing/internal/numeric"
)

// refAllocateStep and refStepPriority are the scheduler's step allocation
// and priority order as they stood before the build reused its buffers and
// sorted with slices.SortStableFunc, kept verbatim (as functions of the
// scheduler) as the parity reference.
func refAllocateStep(s *greedybalance.Scheduler, b *core.Builder) []float64 {
	m := b.NumProcessors()
	var order []int
	for i := 0; i < m; i++ {
		if b.Active(i) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, c := order[x], order[y]
		if s.BalanceFirst && b.RemainingJobs(a) != b.RemainingJobs(c) {
			return b.RemainingJobs(a) > b.RemainingJobs(c)
		}
		ra, rc := b.RemainingWork(a), b.RemainingWork(c)
		switch s.Tie {
		case greedybalance.LargerRemaining:
			if !numeric.Eq(ra, rc) {
				return ra > rc
			}
		case greedybalance.SmallerRemaining:
			if !numeric.Eq(ra, rc) {
				return ra < rc
			}
		}
		return a < c
	})

	shares := make([]float64, m)
	avail := 1.0
	for _, i := range order {
		if avail <= numeric.Eps {
			break
		}
		give := math.Min(avail, b.DemandThisStep(i))
		shares[i] = give
		avail -= give
	}
	return shares
}
func refStepPriority(s *greedybalance.Scheduler, b *core.Builder) []int {
	m := b.NumProcessors()
	var order []int
	for i := 0; i < m; i++ {
		if b.Active(i) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, c := order[x], order[y]
		if s.BalanceFirst && b.RemainingJobs(a) != b.RemainingJobs(c) {
			return b.RemainingJobs(a) > b.RemainingJobs(c)
		}
		if s.Tie == greedybalance.LargerRemaining && !numeric.Eq(b.RemainingWork(a), b.RemainingWork(c)) {
			return b.RemainingWork(a) > b.RemainingWork(c)
		}
		if s.Tie == greedybalance.SmallerRemaining && !numeric.Eq(b.RemainingWork(a), b.RemainingWork(c)) {
			return b.RemainingWork(a) < b.RemainingWork(c)
		}
		return a < c
	})
	return order
}

// refSchedule builds the schedule the way Schedule did before: a fresh
// priority order and shares row for every step. It also reports whether
// StepPriority agreed with the reference at every step.
func refSchedule(s *greedybalance.Scheduler, inst *core.Instance) (*core.Schedule, bool) {
	b := core.NewBuilder(inst)
	same := true
	sched := b.BuildGreedy(func(b *core.Builder) []float64 {
		same = same && slices.Equal(s.StepPriority(b), refStepPriority(s, b))
		return refAllocateStep(s, b)
	})
	return sched, same
}

// schedulers lists every variant the package builds.
func schedulers() []*greedybalance.Scheduler {
	var out []*greedybalance.Scheduler
	for _, tie := range []greedybalance.TieBreak{greedybalance.LargerRemaining, greedybalance.SmallerRemaining, greedybalance.ProcessorIndex} {
		out = append(out, greedybalance.NewWithTie(tie), greedybalance.NewUnbalanced(tie))
	}
	return out
}

// shared is the builder Build runs on in checkGreedyParity: Reset for every
// instance, so each build reuses the rows of the builds before it.
var shared core.Builder

func checkGreedyParity(t *testing.T, inst *core.Instance) {
	t.Helper()
	for _, s := range schedulers() {
		got, err := s.Schedule(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		want, samePriority := refSchedule(s, inst)
		if !samePriority {
			t.Fatalf("%s: StepPriority differs from the reference\n%v", s.Name(), inst)
		}
		shared.Reset(inst)
		for name, got := range map[string]*core.Schedule{"Schedule": got, "Build on a reused builder": s.Build(&shared)} {
			if len(got.Alloc) != len(want.Alloc) {
				t.Fatalf("%s %s: %d steps, reference %d\n%v", s.Name(), name, len(got.Alloc), len(want.Alloc), inst)
			}
			for step := range got.Alloc {
				if !slices.EqualFunc(got.Alloc[step], want.Alloc[step], func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					t.Fatalf("%s %s: step %d shares %v, reference %v\n%v", s.Name(), name, step, got.Alloc[step], want.Alloc[step], inst)
				}
			}
		}
	}
}

// TestScheduleParity holds every variant's schedule, and its Build on a
// reused builder, to the reference, bit for bit, on the load harness's
// corpus (seeds 1-3) and on random instances whose remaining requirements
// tie within numeric.Eps, where the tie-break is intransitive and only the
// identical sequence of comparisons reproduces the order.
func TestScheduleParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, item := range harness.BuildCorpus(seed).Items() {
			checkGreedyParity(t, item.Inst)
		}
	}
	rng := rand.New(rand.NewSource(26))
	palette := []float64{0, 0.3, 0.3 + numeric.Eps/2, 0.3 + numeric.Eps, 0.3 + 1.5*numeric.Eps, 0.5, 1}
	for n := 0; n < 500; n++ {
		procs := make([][]core.Job, 1+rng.Intn(30))
		for i := range procs {
			for k := rng.Intn(4); k > 0; k-- {
				req := palette[rng.Intn(len(palette))]
				if rng.Intn(4) == 0 {
					req = rng.Float64()
				}
				procs[i] = append(procs[i], core.Job{Req: req, Size: []float64{1, 1, 0.5, 2}[rng.Intn(4)]})
			}
		}
		checkGreedyParity(t, core.NewSizedInstance(procs...))
	}
}
