package solver_test

import (
	"context"
	"fmt"

	"crsharing/internal/algo/branchbound"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/solver"
)

// ExampleEvaluate runs the paper's three main algorithms on the RoundRobin
// worst-case family (Figure 3) and reports their makespans: RoundRobin needs
// 2n steps, GreedyBalance and the exact m=2 dynamic program find the optimal
// n+1 steps.
func ExampleEvaluate() {
	inst := gen.Figure3(10)
	for _, k := range []solver.Kernel{roundrobin.New(), greedybalance.New(), optres2.New()} {
		ev, err := solver.Evaluate(context.Background(), solver.Adapt(k), inst)
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

// ExampleCache_Evaluate shows the memo cache's contract: the first call
// solves, the repeat is answered from memory, and both return the same
// evaluation.
func ExampleCache_Evaluate() {
	cache := solver.NewCache(4, 64)
	s, err := solver.Default().New("greedy-balance")
	if err != nil {
		panic(err)
	}
	inst := core.NewInstance(
		[]float64{0.5, 0.5, 0.5},
		[]float64{1.0},
	)

	first, src1, _ := cache.Evaluate(context.Background(), s, inst)
	repeat, src2, _ := cache.Evaluate(context.Background(), s, inst)
	fmt.Println(src1, "makespan", first.Makespan)
	fmt.Println(src2, "makespan", repeat.Makespan)
	fmt.Println("entries cached:", cache.Stats().Entries)
	// Output:
	// solve makespan 3
	// cache makespan 3
	// entries cached: 1
}

// ExamplePortfolio races two heuristics against an exact solver and keeps
// the best schedule any member produces. On this instance both heuristics
// need five steps but the optimum is four, so the branch-and-bound member
// wins the race.
func ExamplePortfolio() {
	p := solver.NewPortfolio(
		solver.Adapt(roundrobin.New()),
		solver.Adapt(greedybalance.New()),
		solver.Adapt(branchbound.New()),
	)
	inst := core.NewInstance(
		[]float64{0.6, 0.4, 0.7},
		[]float64{0.5, 0.6},
		[]float64{0.3, 0.9},
	)

	sched, stats, err := p.Solve(context.Background(), inst)
	if err != nil {
		panic(err)
	}
	res, _ := core.Execute(inst, sched)
	fmt.Println("winner:", stats.Winner)
	fmt.Println("makespan:", res.Makespan())
	fmt.Println("members raced:", len(stats.Candidates))
	// Output:
	// winner: branch-and-bound
	// makespan: 4
	// members raced: 3
}
