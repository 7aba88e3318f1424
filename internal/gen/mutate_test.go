package gen

import (
	"math/rand"
	"testing"

	"crsharing/internal/core"
)

// TestMutatePreservesValidityAndInput: every operator over random instances
// yields a valid in-domain instance, never touches the input, and never
// returns the input's exact fingerprint by aliasing it.
func TestMutatePreservesValidityAndInput(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		inst := RandomUneven(rng, 1+rng.Intn(4), 0, 4, 0.05, 0.95)
		before := inst.Fingerprint()
		for _, kind := range Mutations {
			out := Mutate(rng, inst, kind)
			if out == inst {
				t.Fatalf("%s returned the input instance", kind)
			}
			if err := out.Validate(); err != nil {
				t.Fatalf("%s produced an invalid instance: %v\n%v", kind, err, out)
			}
			if inst.Fingerprint() != before {
				t.Fatalf("%s mutated its input", kind)
			}
		}
	}
}

// TestMutateInapplicableFallsThroughToAppend: kinds that cannot apply (swap
// with single-job queues, drop that would empty the instance) must still
// mutate — via the append fallback — rather than silently return a clone.
func TestMutateInapplicableFallsThroughToAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	single := core.NewInstance([]float64{0.5}) // one processor, one job
	for _, kind := range []MutationKind{MutationSwap, MutationDrop} {
		out := Mutate(rng, single, kind)
		if out.TotalJobs() != 2 {
			t.Fatalf("%s fallback did not append: %d jobs", kind, out.TotalJobs())
		}
	}
}

// TestMutateChainShape: the chain starts at base and advances one mutation
// per element, with every element valid.
func TestMutateChainShape(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	base := RandomUneven(rng, 3, 1, 3, 0.1, 0.9)
	chain := MutateChain(rng, base, 8)
	if len(chain) != 9 {
		t.Fatalf("chain length %d, want 9", len(chain))
	}
	if chain[0] != base {
		t.Fatal("chain does not start at base")
	}
	for s, inst := range chain {
		if err := inst.Validate(); err != nil {
			t.Fatalf("chain element %d invalid: %v", s, err)
		}
	}
}
