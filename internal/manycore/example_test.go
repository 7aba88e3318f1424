package manycore_test

import (
	"fmt"
	"math/rand"

	"crsharing/internal/core"
	"crsharing/internal/manycore"
	"crsharing/internal/trace"
)

// Example simulates a tiny two-core machine: one core runs a bandwidth-hungry
// task, the other a compute-bound task. Under the demand-oblivious
// equal-share arbiter the I/O task crawls at half speed; the demand-aware
// greedy-balance policy gives it the whole channel and halves the makespan —
// the effect that motivates the paper's model.
func Example() {
	workload := manycore.NewWorkload(2)
	workload.Assign(0, manycore.NewTask("io-scan",
		manycore.Phase{Kind: manycore.PhaseIO, Bandwidth: 1.0, Volume: 4}))
	workload.Assign(1, manycore.NewTask("compute",
		manycore.Phase{Kind: manycore.PhaseCompute, Bandwidth: 0, Volume: 4}))

	for _, policy := range []manycore.Policy{manycore.EqualShare{}, manycore.GreedyBalance{}} {
		metrics, err := manycore.Run(workload, policy, nil)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%s: %d ticks\n", metrics.Policy, metrics.Ticks)
	}
	// Output:
	// equal-share: 6 ticks
	// greedy-balance: 4 ticks
}

// ExampleWorkload_Instance converts a one-task-per-core workload with
// unit-volume phases into a CRSharing instance: every phase becomes one
// unit-size job whose resource requirement is the phase's bandwidth share,
// so the paper's offline algorithms and lower bounds apply directly.
func ExampleWorkload_Instance() {
	rng := rand.New(rand.NewSource(1))
	tasks := trace.UnitPhases(rng, 4, 3, 0.2, 0.8)
	workload := manycore.NewWorkload(4)
	for i, t := range tasks {
		workload.Assign(i, t)
	}

	inst, _ := workload.Instance()
	fmt.Println("processors:", inst.NumProcessors())
	fmt.Println("jobs:", inst.TotalJobs())
	fmt.Println("unit size:", inst.IsUnitSize())
	fmt.Println("chain lower bound:", core.LowerBounds(inst).Chain)
	// Output:
	// processors: 4
	// jobs: 12
	// unit size: true
	// chain lower bound: 3
}
