// Manycore I/O: the paper's motivating scenario — an I/O-intensive scientific
// workload on a many-core machine whose cores share one bandwidth channel.
// The example generates a synthetic trace, runs every built-in bandwidth
// policy in the simulator, and then looks at the workload as the CRSharing
// instance the simulator steps, scheduling it with two of the paper's
// offline algorithms.
//
// Run with:
//
//	go run ./examples/manycore_io
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/manycore"
	"crsharing/internal/solver"
	"crsharing/internal/trace"
)

func main() {
	const cores = 16
	rng := rand.New(rand.NewSource(42))

	// One I/O-intensive scientific task per core: alternating scan (high
	// bandwidth) and compute (low bandwidth) phases.
	tasks, err := trace.Scientific(rng, trace.DefaultScientificConfig(cores))
	if err != nil {
		log.Fatal(err)
	}
	workload := manycore.NewWorkload(cores)
	workload.AssignRoundRobin(tasks)

	fmt.Printf("scientific workload: %d tasks on %d cores, total bandwidth-work %.1f, critical path %.1f ticks\n\n",
		workload.NumTasks(), cores, workload.TotalWork(), workload.MaxQueueVolume())

	results, err := manycore.Compare(workload, manycore.Policies()...)
	if err != nil {
		log.Fatal(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tticks\tratio to LB\tbus util %\tstalled core-ticks")
	for _, m := range results {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.1f\t%d\n", m.Policy, m.Ticks, m.RatioToLowerBound(), 100*m.Utilization(), m.StallTicks)
	}
	tw.Flush()

	// The same workload through the lens of the paper's model: each phase
	// becomes a job with the phase's bandwidth share as its resource
	// requirement. The offline algorithms schedule that instance directly.
	inst, err := workload.Instance()
	if err != nil {
		log.Fatal(err)
	}
	bounds := core.LowerBounds(inst)
	fmt.Printf("\nCRSharing view: %d processors, %d jobs, lower bound %d steps\n",
		inst.NumProcessors(), inst.TotalJobs(), bounds.Best())
	for _, k := range []solver.Kernel{roundrobin.New(), greedybalance.New()} {
		ev, err := solver.Evaluate(context.Background(), solver.Adapt(k), inst)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  offline %-16s makespan %3d steps (%.3fx lower bound)\n", ev.Algorithm, ev.Makespan, ev.Ratio)
	}
	fmt.Println("\nthe simulator steps this same instance and its policies see whole queues,")
	fmt.Println("so its greedy-balance row and the offline greedy-balance makespan are one computation")
}
