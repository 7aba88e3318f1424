package hypergraph_test

import (
	"context"
	"fmt"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/gen"
	"crsharing/internal/hypergraph"
)

// ExampleBuildFromSchedule constructs the scheduling hypergraph of a
// GreedyBalance schedule for the Figure 1 instance and prints its component
// structure — the quantities (#k, qk, |Ck|) that drive the bounds of
// Lemmas 2, 5 and 6.
func ExampleBuildFromSchedule() {
	inst := gen.Figure1()
	sched, _ := greedybalance.New().Schedule(context.Background(), inst)
	g, _ := hypergraph.BuildFromSchedule(inst, sched)

	fmt.Println("components:", g.NumComponents())
	for _, c := range g.Components {
		fmt.Printf("C%d: edges=%d class=%d nodes=%d\n", c.Index+1, c.EdgeCount(), c.Class, c.Size())
	}
	fmt.Println("Lemma 5 bound:", g.Lemma5Bound())
	// Output:
	// components: 3
	// C1: edges=2 class=3 nodes=5
	// C2: edges=2 class=3 nodes=4
	// C3: edges=2 class=3 nodes=3
	// Lemma 5 bound: 3
}
