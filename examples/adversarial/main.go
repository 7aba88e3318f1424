// Adversarial: regenerate the paper's worst-case families and watch the
// approximation ratios of RoundRobin and GreedyBalance approach their tight
// bounds of 2 and 2 − 1/m (Theorems 3 and 8).
//
// Run with:
//
//	go run ./examples/adversarial
package main

import (
	"context"
	"fmt"
	"log"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/solver"
)

func main() {
	ctx := context.Background()
	fmt.Println("Figure 3: RoundRobin worst case (two processors)")
	fmt.Println("   n   RoundRobin  OPT   ratio")
	for _, n := range []int{5, 10, 25, 50, 100, 250} {
		inst := gen.Figure3(n)
		rr, err := solver.Evaluate(ctx, solver.Adapt(roundrobin.New()), inst)
		if err != nil {
			log.Fatal(err)
		}
		opt, err := optres2.New().Makespan(inst)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %9d  %4d  %6.3f\n", n, rr.Makespan, opt, float64(rr.Makespan)/float64(opt))
	}
	fmt.Println("the ratio 2n/(n+1) tends to the tight factor 2")

	fmt.Println()
	fmt.Println("Figure 5: GreedyBalance worst case (block construction)")
	fmt.Println("   m  blocks  GreedyBalance  lower bound  ratio   2-1/m")
	for _, m := range []int{2, 3, 4, 5} {
		eps := 1.0 / float64(20*m*(m+1))
		blocks := gen.MaxBlocks(m, eps)
		if blocks > 12 {
			blocks = 12
		}
		inst := gen.GreedyWorstCase(m, blocks, eps)
		gb, err := solver.Evaluate(ctx, solver.Adapt(greedybalance.New()), inst)
		if err != nil {
			log.Fatal(err)
		}
		lb := core.LowerBounds(inst).Best()
		fmt.Printf("%4d  %6d  %13d  %11d  %.3f   %.3f\n",
			m, blocks, gb.Makespan, lb, float64(gb.Makespan)/float64(lb), 2-1.0/float64(m))
	}
	fmt.Println("GreedyBalance is forced to spend 2m-1 steps per block; an optimal")
	fmt.Println("schedule pipelines the unit-sum diagonals and needs about m per block")
}
