package manycore

import (
	"sort"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
)

// Policy decides, at every tick, how the shared bandwidth is split among the
// cores. It reads the run's state from the builder Run steps: core c is
// processor c, its running phase is the processor's active job, and
// DemandThisStep is the share the phase can usefully absorb this tick.
// Shares beyond a core's demand are accounted as waste; shares are trusted
// not to total more than the bus capacity of 1.
type Policy interface {
	// Name returns a short stable identifier for reports.
	Name() string
	// Allocate writes the bandwidth share each core is granted in the
	// builder's next tick into shares, which holds one entry per core, all
	// zero on entry.
	Allocate(b *core.Builder, shares []float64)
}

// requirement returns the full bandwidth requirement of core c's running
// phase (zero when the core is idle).
func requirement(b *core.Builder, c int) float64 {
	if !b.Active(c) {
		return 0
	}
	return b.Instance().Job(c, b.ActiveJob(c)).Req
}

// queueVolume returns the volume left on core c's queue: the rest of the
// running phase plus every phase after it.
func queueVolume(b *core.Builder, c int) float64 {
	if !b.Active(c) {
		return 0
	}
	v := b.RemainingVolume(c)
	for _, j := range b.Instance().Jobs(c)[b.ActiveJob(c)+1:] {
		v += j.Size
	}
	return v
}

// serve grants the cores in order their full demand until the bus is
// exhausted.
func serve(b *core.Builder, order []int, shares []float64) {
	avail := 1.0
	for _, c := range order {
		if avail <= 1e-12 {
			break
		}
		give := min(avail, b.DemandThisStep(c))
		shares[c] = give
		avail -= give
	}
}

// activeCores returns the cores that still have work, in index order.
func activeCores(b *core.Builder) []int {
	var out []int
	for c := 0; c < b.NumProcessors(); c++ {
		if b.Active(c) {
			out = append(out, c)
		}
	}
	return out
}

// EqualShare splits the capacity equally among all active cores, ignoring
// their actual demands. It models a hardware arbiter with no knowledge of the
// software and is the naive baseline of the motivating discussion: cores with
// compute-bound phases receive bandwidth they cannot use while I/O-bound
// phases starve.
type EqualShare struct{}

// Name implements Policy.
func (EqualShare) Name() string { return "equal-share" }

// Allocate implements Policy.
func (EqualShare) Allocate(b *core.Builder, shares []float64) {
	active := activeCores(b)
	for _, c := range active {
		shares[c] = 1 / float64(len(active))
	}
}

// ProportionalShare splits the capacity proportionally to each core's
// declared requirement (not its remaining work). It models bandwidth
// reservation systems that honour declared rates but never redistribute
// unused headroom within a tick.
type ProportionalShare struct{}

// Name implements Policy.
func (ProportionalShare) Name() string { return "proportional-share" }

// Allocate implements Policy.
func (ProportionalShare) Allocate(b *core.Builder, shares []float64) {
	var total float64
	for c := range shares {
		total += requirement(b, c)
	}
	if total <= 0 {
		return
	}
	scale := min(1/total, 1) // no benefit in over-provisioning a phase
	for c := range shares {
		shares[c] = requirement(b, c) * scale
	}
}

// WaterFill serves demands with a water-filling scheme: capacity is divided
// equally, but headroom left by cores whose demand is below the equal share
// is redistributed to the others until either every demand is met or the
// capacity is exhausted. It is the demand-aware "fair" policy.
type WaterFill struct{}

// Name implements Policy.
func (WaterFill) Name() string { return "water-fill" }

// Allocate implements Policy.
func (WaterFill) Allocate(b *core.Builder, shares []float64) {
	remaining := activeCores(b)
	avail := 1.0
	for avail > 1e-12 && len(remaining) > 0 {
		per := avail / float64(len(remaining))
		var next []int
		for _, c := range remaining {
			need := b.DemandThisStep(c) - shares[c]
			if need <= per+1e-12 {
				shares[c] += need
				avail -= need
			} else {
				shares[c] += per
				avail -= per
				next = append(next, c)
			}
		}
		if len(next) == len(remaining) {
			break
		}
		remaining = next
	}
}

// GreedyBalance is the paper's GreedyBalance rule (Section 8.3) used online:
// in every tick it allocates exactly the step greedybalance.Scheduler.Build
// would, serving cores with more phases left on their queue first, ties
// broken by the larger remaining work of the running phase, each with its
// full demand until the capacity runs out. Its run on a workload therefore
// takes as many ticks as the offline greedybalance schedule of the
// workload's instance has steps, which Theorem 7 puts within a factor
// 2 − 1/m of optimal in the unit-size regime.
type GreedyBalance struct{}

// paperRule is the scheduler whose step GreedyBalance allocates.
var paperRule = greedybalance.New()

// Name implements Policy.
func (GreedyBalance) Name() string { return "greedy-balance" }

// Allocate implements Policy.
func (GreedyBalance) Allocate(b *core.Builder, shares []float64) {
	paperRule.Step(b, make([]int, 0, len(shares)), shares)
}

// LongestQueueFirst serves cores in decreasing order of remaining queue
// volume only (no phase-count balancing), giving each its full demand. It is
// the volume-aware contrast to GreedyBalance, whose primary key counts
// phases.
type LongestQueueFirst struct{}

// Name implements Policy.
func (LongestQueueFirst) Name() string { return "longest-queue-first" }

// Allocate implements Policy.
func (LongestQueueFirst) Allocate(b *core.Builder, shares []float64) {
	order := activeCores(b)
	vol := make([]float64, len(shares))
	for _, c := range order {
		vol[c] = queueVolume(b, c)
	}
	sort.SliceStable(order, func(x, y int) bool {
		a, c := order[x], order[y]
		if d := vol[a] - vol[c]; d > 1e-12 || d < -1e-12 {
			return vol[a] > vol[c]
		}
		return a < c
	})
	serve(b, order, shares)
}

// FirstComeFirstServed serves cores in index order, giving each its full
// demand until the capacity runs out. It models a fixed-priority arbiter.
type FirstComeFirstServed struct{}

// Name implements Policy.
func (FirstComeFirstServed) Name() string { return "fcfs" }

// Allocate implements Policy.
func (FirstComeFirstServed) Allocate(b *core.Builder, shares []float64) {
	serve(b, activeCores(b), shares)
}

// Policies returns one instance of every built-in policy, in a stable order
// suitable for comparison tables.
func Policies() []Policy {
	return []Policy{
		EqualShare{},
		ProportionalShare{},
		WaterFill{},
		FirstComeFirstServed{},
		LongestQueueFirst{},
		GreedyBalance{},
	}
}
