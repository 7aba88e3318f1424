// VM consolidation: the paper's second motivating scenario — virtual machines
// sharing a single, arbitrarily divisible host resource. Several VMs are
// packed onto each core of a small host; the example compares bandwidth
// policies, then looks at one host core in isolation through the CRSharing
// model and solves it exactly with the m=2 dynamic program.
//
// Run with:
//
//	go run ./examples/vmconsolidation
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/core"
	"crsharing/internal/manycore"
	"crsharing/internal/solver"
	"crsharing/internal/trace"
)

func main() {
	const (
		hostCores = 8
		vms       = 24
	)
	rng := rand.New(rand.NewSource(7))

	vmTasks, err := trace.VMs(rng, trace.DefaultVMConfig(vms))
	if err != nil {
		log.Fatal(err)
	}
	workload := manycore.NewWorkload(hostCores)
	workload.AssignRoundRobin(vmTasks)

	fmt.Printf("consolidating %d VMs onto %d host cores (shared resource capacity 1.0)\n\n", vms, hostCores)
	results, err := manycore.Compare(workload, manycore.Policies()...)
	if err != nil {
		log.Fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tticks\tratio to LB\tbus util %")
	for _, m := range results {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.1f\n", m.Policy, m.Ticks, m.RatioToLowerBound(), 100*m.Utilization())
	}
	tw.Flush()

	// Zoom in on two host cores and their VM queues: flattening each queue
	// gives a 2-processor CRSharing instance with (generally) non-unit phase
	// volumes; rounding the volumes to 1 gives the unit-size model that the
	// exact dynamic program of Theorem 5 solves.
	pair := &manycore.Workload{Queues: workload.Queues[:2]}
	inst, err := pair.Instance()
	if err != nil {
		log.Fatal(err)
	}
	unit := toUnit(inst)

	gb, err := solver.Evaluate(context.Background(), solver.Adapt(greedybalance.New()), unit)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := optres2.New().Makespan(unit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntwo-core close-up (unit-size model): %d phases\n", unit.TotalJobs())
	fmt.Printf("  greedy-balance makespan: %d steps\n", gb.Makespan)
	fmt.Printf("  exact optimum (Theorem 5 DP): %d steps\n", opt)
	fmt.Printf("  greedy-balance is within the proven factor 2-1/2 = 1.5: %v\n",
		float64(gb.Makespan) <= 1.5*float64(opt)+1e-9)
}

// toUnit replaces every job's size by 1, keeping its requirement — the
// unit-size restriction under which the paper's exact results hold.
func toUnit(inst *core.Instance) *core.Instance {
	rows := make([][]float64, inst.NumProcessors())
	for i := 0; i < inst.NumProcessors(); i++ {
		for _, j := range inst.Jobs(i) {
			rows[i] = append(rows[i], j.Req)
		}
	}
	return core.NewInstance(rows...)
}
