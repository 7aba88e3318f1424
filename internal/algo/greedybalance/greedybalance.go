// Package greedybalance implements the GreedyBalance algorithm of Section 8.3
// of the paper and, more generally, the family of balanced greedy schedulers
// analysed in Section 8. In every time step the scheduler serves the active
// jobs in priority order — processors with more remaining jobs first, ties
// broken by larger remaining resource requirement — giving each job its full
// remaining demand until the resource is exhausted (the last served job may
// be partial). The resulting schedules are non-wasting, progressive and
// balanced, hence (2 − 1/m)-approximate by Theorem 7; Theorem 8 shows the
// ratio 2 − 1/m is attained by the Figure 5 block construction.
package greedybalance

import (
	"context"
	"math"
	"slices"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// TieBreak selects the secondary priority among processors with equally many
// remaining jobs. The paper's GreedyBalance uses LargerRemaining.
type TieBreak int

const (
	// LargerRemaining prefers the job with the larger remaining resource
	// requirement (the paper's GreedyBalance).
	LargerRemaining TieBreak = iota
	// SmallerRemaining prefers the job with the smaller remaining resource
	// requirement (finishes as many jobs as possible, the strategy of the
	// Figure 1 example).
	SmallerRemaining
	// ProcessorIndex breaks ties by processor index only.
	ProcessorIndex
)

// Scheduler is a balanced greedy scheduler.
type Scheduler struct {
	// Tie selects the tie-breaking rule among processors with equally many
	// remaining jobs; the default is LargerRemaining (the paper's rule).
	Tie TieBreak
	// BalanceFirst controls the primary key. When true (default, the paper's
	// GreedyBalance), processors with more remaining jobs are served first.
	// When false the scheduler ignores balance and uses only the tie-break
	// rule; such schedules are not balanced in general and serve as ablation
	// baselines in the experiments.
	BalanceFirst bool
}

// New returns the paper's GreedyBalance scheduler.
func New() *Scheduler { return &Scheduler{Tie: LargerRemaining, BalanceFirst: true} }

// NewWithTie returns a balanced greedy scheduler with a custom tie-break.
func NewWithTie(tie TieBreak) *Scheduler { return &Scheduler{Tie: tie, BalanceFirst: true} }

// NewUnbalanced returns the ablation variant that ignores the balance rule.
func NewUnbalanced(tie TieBreak) *Scheduler { return &Scheduler{Tie: tie, BalanceFirst: false} }

// Name returns the variant's name; the paper's rule is "greedy-balance".
func (s *Scheduler) Name() string {
	switch {
	case s.BalanceFirst && s.Tie == LargerRemaining:
		return "greedy-balance"
	case s.BalanceFirst && s.Tie == SmallerRemaining:
		return "greedy-balance-small"
	case s.BalanceFirst:
		return "greedy-balance-index"
	case s.Tie == LargerRemaining:
		return "greedy-unbalanced-large"
	case s.Tie == SmallerRemaining:
		return "greedy-unbalanced-small"
	default:
		return "greedy-unbalanced-index"
	}
}

// Schedule builds the greedy schedule; it never looks at the context. Jobs
// of arbitrary size are accepted; the balance rule then compares remaining
// job counts exactly as in the unit case (the extension suggested in the
// paper's outlook, Section 9).
func (s *Scheduler) Schedule(_ context.Context, inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return s.Build(core.NewBuilder(inst)).Clone(), nil
}

// Build runs the scheduler on b, a builder at time step one of a valid
// instance, and returns the schedule, which ends at the step that finishes
// the last job. The schedule's rows are the builder's own (see
// core.Builder.Rows), so a caller that keeps one builder across instances
// builds without allocating rows; Schedule returns an exact-size copy.
func (s *Scheduler) Build(b *core.Builder) *core.Schedule {
	// One order and one shares buffer serve every step of the build: the
	// builder copies each step's shares into its own row.
	order := make([]int, 0, b.NumProcessors())
	shares := make([]float64, b.NumProcessors())
	b.Run(func(b *core.Builder) []float64 {
		order = s.Step(b, order, shares)
		return shares
	})
	return &core.Schedule{Alloc: b.Rows()}
}

// Step is the rule Build applies at every time step: it writes the
// allocation of the builder's next step into shares (one entry per
// processor), serving the active processors in priority order, each with its
// full demand until the resource runs out. It uses order's backing array for
// the priority order and returns it, so a caller can reuse one buffer across
// steps.
func (s *Scheduler) Step(b *core.Builder, order []int, shares []float64) []int {
	order = s.priority(b, order[:0])
	clear(shares)
	avail := 1.0
	for _, i := range order {
		if avail <= numeric.Eps {
			break
		}
		give := math.Min(avail, b.DemandThisStep(i))
		shares[i] = give
		avail -= give
	}
	return order
}

// StepPriority exposes the priority order the scheduler would use for the
// builder's current state; it is used by tests that verify the balanced
// property directly against the definition.
func (s *Scheduler) StepPriority(b *core.Builder) []int {
	return s.priority(b, nil)
}

// priority appends the active processors to order, highest priority first:
// more remaining jobs first (when BalanceFirst), then the tie-break rule,
// then the lower index. The sort is stable, like sort.SliceStable, and the
// comparator only ever answers "before" or "not before", so the order is
// the same even where numeric.Eq's tolerance makes the tie-break
// intransitive.
func (s *Scheduler) priority(b *core.Builder, order []int) []int {
	for i := 0; i < b.NumProcessors(); i++ {
		if b.Active(i) {
			order = append(order, i)
		}
	}
	slices.SortStableFunc(order, func(a, c int) int {
		if s.before(b, a, c) {
			return -1
		}
		return 1
	})
	return order
}

// before reports whether processor a is served before processor c.
func (s *Scheduler) before(b *core.Builder, a, c int) bool {
	if s.BalanceFirst && b.RemainingJobs(a) != b.RemainingJobs(c) {
		return b.RemainingJobs(a) > b.RemainingJobs(c)
	}
	ra, rc := b.RemainingWork(a), b.RemainingWork(c)
	switch s.Tie {
	case LargerRemaining:
		if !numeric.Eq(ra, rc) {
			return ra > rc
		}
	case SmallerRemaining:
		if !numeric.Eq(ra, rc) {
			return ra < rc
		}
	}
	return a < c
}
