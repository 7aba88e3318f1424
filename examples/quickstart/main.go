// Quickstart: build a small CRSharing instance, run the paper's algorithms on
// it, and compare their makespans against the lower bounds and the exact
// optimum.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optresm"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/hypergraph"
	"crsharing/internal/solver"
)

func main() {
	// Three processors sharing one resource (say, the memory bus of a
	// many-core chip). Each processor runs a fixed sequence of unit-size
	// jobs; the numbers are the fraction of the bus each job needs to run at
	// full speed.
	inst := core.NewInstance(
		[]float64{0.20, 0.10, 0.10, 0.10},
		[]float64{0.50, 0.55, 0.90, 0.55, 0.10},
		[]float64{0.50, 0.40, 0.95},
	)
	fmt.Print(inst)

	bounds := core.LowerBounds(inst)
	fmt.Printf("\nlower bounds: aggregate work %d steps, longest chain %d steps\n\n", bounds.Work, bounds.Chain)

	ctx := context.Background()
	kernels := []solver.Kernel{
		roundrobin.New(),    // Theorem 3: 2-approximation
		greedybalance.New(), // Theorems 7/8: (2 - 1/m)-approximation
		optresm.New(),       // Theorem 6: exact for fixed m
	}
	for _, k := range kernels {
		ev, err := solver.Evaluate(ctx, solver.Adapt(k), inst)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s makespan %2d  ratio-to-LB %.3f  properties: %s\n",
			ev.Algorithm, ev.Makespan, ev.Ratio, ev.Properties)
	}

	// The scheduling hypergraph (Section 3.2) of the greedy-balance schedule:
	// its connected components explain where parallelism was available.
	sched, err := greedybalance.New().Schedule(ctx, inst)
	if err != nil {
		log.Fatal(err)
	}
	g, err := hypergraph.BuildFromSchedule(inst, sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", g)
	fmt.Printf("Lemma 5 bound: %d, Lemma 6 bound: %.2f\n", g.Lemma5Bound(), g.Lemma6Bound())
}
