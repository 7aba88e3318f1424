// Package optresm implements OptResAssignment2 (Algorithm 2 of the paper):
// an exact algorithm for the CRSharing problem with unit size jobs on any
// fixed number m of processors, running in time polynomial in n for constant
// m (Theorem 6).
//
// The algorithm enumerates configurations round by round. A configuration
// records, for every processor, the number of completed jobs and the amount
// of resource already invested into its active job. Successor configurations
// are generated only for non-wasting, progressive steps: a subset of active
// jobs is completed and at most one further active job receives the leftover
// resource. These steps come from package moves, the enumerator the
// branch-and-bound kernel also expands with: a round expands each of its
// configurations into one reused buffer, derives the successors in
// enumeration order into one reused row triple and keeps the first
// configuration generated for each packed state key (done counts, remaining
// work rounded to 1e-9), copying out only those. Dominated configurations
// (Lemma 4 / the domination relation of Section 7) are pruned after every
// round, which keeps the number of live configurations polynomial for fixed
// m.
package optresm

import (
	"context"
	"fmt"
	"sort"

	"crsharing/internal/algo/moves"
	"crsharing/internal/core"
	"crsharing/internal/numeric"
	"crsharing/internal/progress"
)

// MaxProcessors bounds the supported processor count. Successor generation
// enumerates subsets of active processors, so the per-configuration work
// grows as 2^m; beyond this bound the algorithm is impractical and Schedule
// returns an error instead of running away.
const MaxProcessors = 12

// DefaultMaxConfigs caps the total number of configurations kept across all
// rounds, as a safety valve against pathological blow-up (the theoretical
// bound of Theorem 6 is polynomial but with a large exponent).
const DefaultMaxConfigs = 2_000_000

// Scheduler is the exact fixed-m configuration-enumeration algorithm.
type Scheduler struct {
	// MaxConfigs overrides DefaultMaxConfigs when positive.
	MaxConfigs int
}

// New returns an OptResAssignment2 scheduler with default limits.
func New() *Scheduler { return &Scheduler{} }

// Name returns "opt-res-assignment-2".
func (s *Scheduler) Name() string { return "opt-res-assignment-2" }

// IsExact marks the scheduler as exact.
func (s *Scheduler) IsExact() bool { return true }

// config is one (extended) configuration: the state at the start of a round.
type config struct {
	done []int     // jobs completed per processor
	rem  []float64 // remaining work of the active job per processor (0 if exhausted)

	parent int       // index into the previous round's slice; -1 for the root
	alloc  []float64 // allocation of the step that produced this configuration
}

// dominates reports whether configuration a is at least as advanced as b on
// every processor: strictly more jobs done, or equally many jobs done with no
// more remaining work on the active job.
func dominates(a, b *config) bool {
	for i := range a.done {
		switch {
		case a.done[i] > b.done[i]:
			// ahead on this processor
		case a.done[i] == b.done[i] && numeric.Leq(a.rem[i], b.rem[i]):
			// equally far with at least as much progress on the active job
		default:
			return false
		}
	}
	return true
}

// Schedule enumerates the configurations round by round and reconstructs an
// optimal schedule. ctx is polled before every parent whose successors a
// round generates, and every 64 configurations while the round is pruned, so
// cancellation and deadlines take effect within a slice of a round, not
// after the whole round.
func (s *Scheduler) Schedule(ctx context.Context, inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if !inst.IsUnitSize() {
		return nil, fmt.Errorf("optresm: requires unit size jobs")
	}
	m := inst.NumProcessors()
	if m == 0 || inst.TotalJobs() == 0 {
		return &core.Schedule{}, nil
	}
	if m > MaxProcessors {
		return nil, fmt.Errorf("optresm: %d processors exceeds the supported maximum of %d", m, MaxProcessors)
	}
	maxConfigs := s.MaxConfigs
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigs
	}

	root := &config{done: make([]int, m), rem: make([]float64, m), parent: -1}
	for i := 0; i < m; i++ {
		root.rem[i] = moves.Work(inst, i, 0)
	}
	if isFinal(inst, root) {
		return &core.Schedule{}, nil
	}

	rounds := [][]*config{{root}}
	totalConfigs := 1
	done := ctx.Done()
	var (
		sc     moves.Scratch
		buf    moves.Buf
		allocs int64 // growth events of sc and buf; optresm reports none
		key    []byte
		seen   = make(map[string]struct{})
		// Every successor is derived into these rows; only a new key's are
		// copied into a configuration.
		succDone  = make([]int, m)
		succRem   = make([]float64, m)
		succAlloc = make([]float64, m)
	)

	for t := 0; ; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		current := rounds[t]
		var next []*config
		clear(seen)

		for parentIdx, c := range current {
			// One parent at m=10-12 yields thousands of successors, so the
			// round polls before every parent; a receive on the done
			// channel costs far less than the generation it guards.
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
			// Successors are visited in enumeration order, not in the
			// branch-and-bound move order, and deduplicated by the exact
			// packed key: the first configuration generated for a state is
			// the one kept (same state, same time).
			moves.Expand(inst, &sc, c.done, c.rem, &buf, &allocs)
			for i := 0; i < buf.Len(); i++ {
				buf.Derive(inst, i, succDone, succRem, succAlloc)
				key = moves.AppendKey(key[:0], succDone, succRem)
				if _, ok := seen[string(key)]; ok {
					continue
				}
				seen[string(key)] = struct{}{}
				next = append(next, &config{
					done:   append([]int(nil), succDone...),
					rem:    append([]float64(nil), succRem...),
					parent: parentIdx,
					alloc:  append([]float64(nil), succAlloc...),
				})
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("optresm: internal error: no successor configurations at round %d", t+1)
		}
		// Every deduplicated configuration of the round counts as an explored
		// node for solve telemetry.
		progress.AddNodes(ctx, int64(len(next)))

		// Check for a final configuration before pruning: any final
		// configuration reached in this round is optimal.
		for _, nc := range next {
			if isFinal(inst, nc) {
				rounds = append(rounds, next)
				return reconstruct(inst, rounds, nc), nil
			}
		}

		next, err := pruneDominated(ctx, next)
		if err != nil {
			return nil, err
		}
		totalConfigs += len(next)
		if totalConfigs > maxConfigs {
			return nil, fmt.Errorf("optresm: configuration limit of %d exceeded (instance too large for the exact algorithm)", maxConfigs)
		}
		rounds = append(rounds, next)
	}
}

func isFinal(inst *core.Instance, c *config) bool {
	for i := range c.done {
		if c.done[i] < inst.NumJobs(i) {
			return false
		}
	}
	return true
}

// pruneDominated removes every configuration dominated by another one in the
// same round. When two configurations dominate each other (identical state)
// the one with the lower index is kept.
//
// Instead of the all-pairs quadratic sweep this sorts the round by a
// domination-compatible score — total jobs done descending, total remaining
// work ascending, index ascending — and sweeps once: a configuration can only
// be dominated by one placed earlier in that order (up to epsilon ties on the
// remaining-work totals, which at worst leave an occasional dominated
// configuration alive; the algorithm then merely prunes slightly less, which
// is always sound). Each candidate is tested against the kept configurations
// only, stopping at the first dominator, so rounds whose members are mostly
// dominated by a few leaders cost far fewer comparisons than n². Survivors
// are returned in their original order, which keeps the scheduler
// deterministic.
func pruneDominated(ctx context.Context, configs []*config) ([]*config, error) {
	n := len(configs)
	if n <= 1 {
		return configs, nil
	}
	sumDone := make([]int, n)
	sumRem := make([]float64, n)
	ord := make([]int, n)
	for i, c := range configs {
		ord[i] = i
		for p := range c.done {
			sumDone[i] += c.done[p]
			sumRem[i] += c.rem[p]
		}
	}
	sort.Slice(ord, func(a, b int) bool {
		x, y := ord[a], ord[b]
		if sumDone[x] != sumDone[y] {
			return sumDone[x] > sumDone[y]
		}
		if sumRem[x] != sumRem[y] {
			return sumRem[x] < sumRem[y]
		}
		return x < y
	})
	removed := make([]uint64, (n+63)/64)
	live := make([]int, 0, n)
	for pos, j := range ord {
		if pos&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		dominated := false
		for _, i := range live {
			if dominates(configs[i], configs[j]) {
				dominated = true
				break
			}
		}
		if dominated {
			removed[j/64] |= 1 << (j % 64)
		} else {
			live = append(live, j)
		}
	}
	out := configs[:0]
	for i, c := range configs {
		if removed[i/64]&(1<<(i%64)) == 0 {
			out = append(out, c)
		}
	}
	return out, nil
}

// reconstruct walks the parent chain of the final configuration and emits the
// per-step allocations.
func reconstruct(inst *core.Instance, rounds [][]*config, final *config) *core.Schedule {
	steps := len(rounds) - 1
	sched := core.NewSchedule(steps, inst.NumProcessors())
	c := final
	for t := steps - 1; t >= 0; t-- {
		copy(sched.Alloc[t], c.alloc)
		c = rounds[t][c.parent]
	}
	return sched
}
