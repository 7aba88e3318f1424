package moves

import (
	"math/rand"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// corpus returns the instances the enumerator is checked on: random,
// low-requirement and uneven instances for every m from 2 to 12, three
// mutation chains of m=10 Partition gadgets (Theorem 4), a chain of
// requirement nudges on one fixed gadget, and every two-processor pair of
// epsilonBoundaryValues. It draws from rng in a fixed order, so a seeded rng
// yields the same corpus every run.
func corpus(tb testing.TB, rng *rand.Rand) []*core.Instance {
	tb.Helper()
	var insts []*core.Instance
	for m := 2; m <= 12; m++ {
		insts = append(insts,
			gen.Random(rng, m, 1+rng.Intn(4), 0.05, 0.95),
			gen.Random(rng, m, 3, 0.01, 0.3),
			gen.RandomUneven(rng, m, 1, 5, 0.05, 0.95))
	}
	for c := 0; c < 3; c++ {
		insts = append(insts, gen.MutateChain(rng, drawGadget(tb, rng, 10), 11)...)
	}
	insts = append(insts, nudgeChain(tb, 6)...)
	for _, a := range epsilonBoundaryValues {
		for _, b := range epsilonBoundaryValues {
			insts = append(insts, core.NewInstance([]float64{a, b}, []float64{b, a}))
		}
	}
	return insts
}

// epsilonBoundaryValues are requirements sitting exactly on, and a few ULP-ish
// nudges around, the share boundaries where the non-wasting split logic
// compares leftovers against the numeric tolerance.
var epsilonBoundaryValues = []float64{
	0.25 - 4e-10, 0.25, 0.25 + 4e-10,
	0.5 - 4e-10, 0.5, 0.5 + 4e-10,
	1.0 / 3, 2.0 / 3, 1,
}

// nudgeChain returns a fixed m=10 Partition gadget followed by steps
// requirement nudges, each shaving 1e-4 off the first job of the next
// processor: the chain the branch-and-bound warm-start benchmarks replay.
func nudgeChain(tb testing.TB, steps int) []*core.Instance {
	tb.Helper()
	base, err := gen.PartitionGadget([]int64{17, 23, 29, 31, 41, 17, 23, 29, 31, 41}, 0.01)
	if err != nil {
		tb.Fatalf("PartitionGadget: %v", err)
	}
	chain := []*core.Instance{base}
	for step := 0; step < steps; step++ {
		next := chain[len(chain)-1].Clone()
		next.Procs[step%next.NumProcessors()][0].Req -= 1e-4
		chain = append(chain, next)
	}
	return chain
}

// drawGadget draws a Partition gadget with n processors the way the serving
// benchmark's online workload draws its n=10 ones: elements in [10,50)
// adjusted to an even sum, ε=0.01.
func drawGadget(tb testing.TB, rng *rand.Rand, n int) *core.Instance {
	tb.Helper()
	elems := make([]int64, n)
	var sum int64
	for i := range elems {
		elems[i] = 10 + rng.Int63n(40)
		sum += elems[i]
	}
	if sum%2 != 0 {
		if elems[0] < 49 {
			elems[0]++
		} else {
			elems[0]--
		}
	}
	inst, err := gen.PartitionGadget(elems, 0.01)
	if err != nil {
		tb.Fatalf("PartitionGadget: %v", err)
	}
	return inst
}

// rootState returns the state before the first step: no job done, every
// processor's first job untouched.
func rootState(inst *core.Instance) ([]int, []float64) {
	m := inst.NumProcessors()
	done, rem := make([]int, m), make([]float64, m)
	for i := range rem {
		rem[i] = Work(inst, i, 0)
	}
	return done, rem
}
