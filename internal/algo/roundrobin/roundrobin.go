// Package roundrobin implements the RoundRobin algorithm of Section 4.2 of
// the paper. The algorithm operates in n phases (n = max_i n_i). During phase
// j it processes only the j-th job of every processor that has one, assigning
// the resource among the unfinished j-th jobs until all of them are done; the
// next phase then starts at the following time step. Theorem 3 shows the
// algorithm is a 2-approximation for unit size jobs, and that the factor 2 is
// tight (the Figure 3 construction).
package roundrobin

import (
	"context"
	"math"
	"sort"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// Scheduler runs the RoundRobin algorithm.
type Scheduler struct {
	// FillOrder controls how the resource is distributed among the unfinished
	// jobs of the current phase. The paper allows an arbitrary assignment;
	// the default (LargestRemainingFirst) fills jobs in order of decreasing
	// remaining requirement, which keeps the number of partially processed
	// jobs per step minimal.
	FillOrder FillOrder
}

// FillOrder selects the within-phase resource distribution strategy.
type FillOrder int

const (
	// LargestRemainingFirst serves unfinished phase jobs in order of
	// decreasing remaining requirement.
	LargestRemainingFirst FillOrder = iota
	// SmallestRemainingFirst serves them in order of increasing remaining
	// requirement (finishes many small jobs early in the phase).
	SmallestRemainingFirst
	// ProcessorOrder serves them in processor index order.
	ProcessorOrder
	// EqualSplit divides the resource equally among all unfinished phase
	// jobs, capped by each job's demand (a maximally "fair" but maximally
	// non-progressive variant).
	EqualSplit
)

// New returns a RoundRobin scheduler with the default fill order.
func New() *Scheduler { return &Scheduler{FillOrder: LargestRemainingFirst} }

// Name returns "round-robin".
func (s *Scheduler) Name() string { return "round-robin" }

// Schedule runs the phases; it never looks at the context. It accepts jobs
// of arbitrary size: a phase simply lasts until the j-th job of every
// participating processor has completed.
func (s *Scheduler) Schedule(_ context.Context, inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	b := core.NewBuilder(inst)
	n := inst.MaxJobs()
	m := inst.NumProcessors()

	for phase := 0; phase < n; phase++ {
		// The phase processes job index `phase` on every processor that has
		// it. The builder state tells us which of them are still unfinished.
		for !phaseDone(b, phase) {
			shares := make([]float64, m)
			avail := 1.0
			members := phaseMembers(b, phase)
			s.order(b, members)
			switch s.FillOrder {
			case EqualSplit:
				s.fillEqual(b, members, shares, avail)
			default:
				for _, i := range members {
					if avail <= numeric.Eps {
						break
					}
					give := math.Min(avail, b.DemandThisStep(i))
					shares[i] = give
					avail -= give
				}
			}
			b.AppendStep(shares)
		}
	}
	return b.Schedule(), nil
}

// phaseMembers returns the processors whose job `phase` is still unfinished.
func phaseMembers(b *core.Builder, phase int) []int {
	var members []int
	for i := 0; i < b.NumProcessors(); i++ {
		if b.ActiveJob(i) == phase {
			members = append(members, i)
		}
	}
	return members
}

// phaseDone reports whether every processor has progressed past job `phase`
// (or never had it).
func phaseDone(b *core.Builder, phase int) bool {
	for i := 0; i < b.NumProcessors(); i++ {
		if j := b.ActiveJob(i); j >= 0 && j <= phase {
			return false
		}
	}
	return true
}

func (s *Scheduler) order(b *core.Builder, members []int) {
	switch s.FillOrder {
	case LargestRemainingFirst:
		sort.SliceStable(members, func(a, c int) bool {
			return b.RemainingWork(members[a]) > b.RemainingWork(members[c])
		})
	case SmallestRemainingFirst:
		sort.SliceStable(members, func(a, c int) bool {
			return b.RemainingWork(members[a]) < b.RemainingWork(members[c])
		})
	case ProcessorOrder, EqualSplit:
		sort.Ints(members)
	}
}

// fillEqual repeatedly divides the available resource equally among the
// members whose demand is not yet met (water-filling), so no resource is left
// over while some member could still use it.
func (s *Scheduler) fillEqual(b *core.Builder, members []int, shares []float64, avail float64) {
	demand := make(map[int]float64, len(members))
	for _, i := range members {
		demand[i] = b.DemandThisStep(i)
	}
	remaining := append([]int(nil), members...)
	for avail > numeric.Eps && len(remaining) > 0 {
		per := avail / float64(len(remaining))
		var next []int
		for _, i := range remaining {
			need := demand[i] - shares[i]
			if need <= per+numeric.Eps {
				shares[i] += need
				avail -= need
			} else {
				shares[i] += per
				avail -= per
				next = append(next, i)
			}
		}
		if len(next) == len(remaining) {
			// Everyone is capped by `per`; the resource is exhausted.
			break
		}
		remaining = next
	}
}

// PhaseLengths returns, for each phase j (zero-based), the number of time
// steps RoundRobin spends on it, which by the proof of Theorem 3 equals
// ⌈Σ_{i ∈ M_j} r_ij⌉ for unit size jobs. It is exposed for the experiment
// harness and tests.
func PhaseLengths(inst *core.Instance) []int {
	n := inst.MaxJobs()
	lengths := make([]int, n)
	for j := 0; j < n; j++ {
		var sum numeric.KahanAdder
		for i := 0; i < inst.NumProcessors(); i++ {
			if inst.NumJobs(i) > j {
				sum.Add(inst.Job(i, j).Work())
			}
		}
		l := int(math.Ceil(sum.Sum() - numeric.Eps))
		if l < 1 {
			l = 1
		}
		lengths[j] = l
	}
	return lengths
}
