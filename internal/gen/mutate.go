package gen

import (
	"math/rand"

	"crsharing/internal/core"
)

// Mutation operators over instances: the harness's "online" workload class
// replays seeded mutation chains of them as client traffic, exercising the
// incremental-solving layer (each request carries the chain's previous answer
// as a warm start). Every operator
// returns a fresh instance (the input is never modified) that stays inside
// the model's domain, and preserves unit sizes when the input has them.

// MutationKind names one instance mutation operator.
type MutationKind string

const (
	// MutationSwap transposes two consecutive jobs on one processor —
	// "permutation-adjacent" within a queue. (Permuting whole processors
	// would be pointless here: the canonical fingerprint already normalizes
	// processor order.)
	MutationSwap MutationKind = "swap"
	// MutationDrop removes the first job of one processor, modelling a job
	// that completed and left the online instance.
	MutationDrop MutationKind = "drop"
	// MutationAppend adds a job to the end of one processor's queue,
	// modelling an online arrival.
	MutationAppend MutationKind = "append"
	// MutationNudge perturbs one job's requirement by a small delta,
	// clamped into [0,1].
	MutationNudge MutationKind = "nudge"
)

// Mutations lists every operator, in the order Mutate cycles through them.
var Mutations = []MutationKind{MutationSwap, MutationDrop, MutationAppend, MutationNudge}

// Mutate applies one operator of the given kind to a seeded random location
// of inst and returns the mutated copy. When the kind cannot apply (a swap
// on an instance whose queues all hold fewer than two jobs, a drop that
// would empty the last non-empty queue) it falls through to MutationAppend,
// which always applies, so the result is never nil and never equals inst's
// fingerprint trivially by being inst itself.
func Mutate(rng *rand.Rand, inst *core.Instance, kind MutationKind) *core.Instance {
	out := inst.Clone()
	m := out.NumProcessors()
	if m == 0 {
		return out
	}
	switch kind {
	case MutationSwap:
		if i, ok := pickProcWith(rng, out, 2); ok {
			j := rng.Intn(len(out.Procs[i]) - 1)
			out.Procs[i][j], out.Procs[i][j+1] = out.Procs[i][j+1], out.Procs[i][j]
			return out
		}
	case MutationDrop:
		// Keep at least one job in the instance overall, so the mutated
		// instance remains a non-trivial solve.
		if inst.TotalJobs() > 1 {
			if i, ok := pickProcWith(rng, out, 1); ok {
				out.Procs[i] = append([]core.Job(nil), out.Procs[i][1:]...)
				return out
			}
		}
	case MutationNudge:
		if i, ok := pickProcWith(rng, out, 1); ok {
			j := rng.Intn(len(out.Procs[i]))
			delta := (rng.Float64()*2 - 1) * 0.08
			out.Procs[i][j].Req = clamp01(out.Procs[i][j].Req + delta)
			return out
		}
	}
	// MutationAppend, and the fallback for inapplicable kinds.
	i := rng.Intn(m)
	out.Procs[i] = append(append([]core.Job(nil), out.Procs[i]...),
		core.UnitJob(clamp01(0.05+rng.Float64()*0.9)))
	return out
}

// MutateChain returns a chain of length steps starting from base: element 0
// is base itself, and each following element applies one operator (cycling
// through Mutations, locations drawn from rng) to its predecessor. This is
// the shape of the online workload: a stream of near-duplicates, each one
// mutation away from an instance already seen.
func MutateChain(rng *rand.Rand, base *core.Instance, steps int) []*core.Instance {
	chain := make([]*core.Instance, 0, steps+1)
	chain = append(chain, base)
	cur := base
	for s := 0; s < steps; s++ {
		cur = Mutate(rng, cur, Mutations[s%len(Mutations)])
		chain = append(chain, cur)
	}
	return chain
}

// pickProcWith picks a uniformly random processor with at least minJobs
// jobs; ok is false when none qualifies.
func pickProcWith(rng *rand.Rand, inst *core.Instance, minJobs int) (int, bool) {
	var eligible []int
	for i := 0; i < inst.NumProcessors(); i++ {
		if inst.NumJobs(i) >= minJobs {
			eligible = append(eligible, i)
		}
	}
	if len(eligible) == 0 {
		return 0, false
	}
	return eligible[rng.Intn(len(eligible))], true
}
