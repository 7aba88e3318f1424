package algo_test

import (
	"fmt"

	"crsharing/internal/algo"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/gen"
)

// ExampleEvaluate runs the paper's three main algorithms on the RoundRobin
// worst-case family (Figure 3) and reports their makespans: RoundRobin needs
// 2n steps, GreedyBalance and the exact m=2 dynamic program find the optimal
// n+1 steps.
func ExampleEvaluate() {
	inst := gen.Figure3(10)
	for _, s := range []algo.Scheduler{roundrobin.New(), greedybalance.New(), optres2.New()} {
		ev, err := algo.Evaluate(s, inst)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%s: %d\n", ev.Algorithm, ev.Makespan)
	}
	// Output:
	// round-robin: 20
	// greedy-balance: 11
	// opt-res-assignment: 11
}
