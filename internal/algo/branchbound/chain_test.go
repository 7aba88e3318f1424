package branchbound

import (
	"math/rand"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// NudgeDown shaves delta off one job's requirement — the online workload's
// "requirement nudge" mutation. The previous instance's optimal schedule
// stays feasible (shares may over-provision, never under-provision), so the
// adapted hint ties the new optimum. Exported for the external warm-start
// tests.
func NudgeDown(inst *core.Instance, p, j int, delta float64) *core.Instance {
	out := inst.Clone()
	out.Procs[p][j].Req -= delta
	return out
}

// ChainBase is a Partition-reduction gadget (Theorem 4): the optimum needs
// the hidden partition, which GreedyBalance does not find, so every cold
// solve pays for the subset hunt while a warm start that carries the
// previous optimum prunes it away at the root. This is the regime warm
// starts are for: near-duplicate arrivals of an instance whose exact solve
// is genuinely expensive. Exported for the external warm-start tests.
func ChainBase(tb testing.TB) *core.Instance {
	tb.Helper()
	inst, err := gen.PartitionGadget([]int64{17, 23, 29, 31, 41, 17, 23, 29, 31, 41}, 0.01)
	if err != nil {
		tb.Fatalf("PartitionGadget: %v", err)
	}
	return inst
}

// nudgeChain returns ChainBase followed by steps requirement nudges, the
// chain the warm-start benchmarks replay.
func nudgeChain(tb testing.TB, steps int) []*core.Instance {
	tb.Helper()
	chain := []*core.Instance{ChainBase(tb)}
	for step := 0; step < steps; step++ {
		cur := chain[len(chain)-1]
		chain = append(chain, NudgeDown(cur, step%cur.NumProcessors(), 0, 1e-4))
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
