package harness_test

import (
	"context"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/harness"
)

// BenchmarkOracleCheckSchedule revalidates GreedyBalance's schedule for the
// 10-element Partition gadget (m=10, 30 unit jobs, 5 steps): execution,
// claims, lower bound, the four properties and Propositions 1-2.
func BenchmarkOracleCheckSchedule(b *testing.B) {
	inst, err := gen.PartitionGadget([]int64{17, 23, 29, 31, 41, 17, 23, 29, 31, 41}, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		b.Fatal(err)
	}
	o := harness.NewOracle()
	b.ReportAllocs()
	for b.Loop() {
		if err := o.CheckSchedule("gadget", inst, sched, res.Makespan(), res.Wasted()); err != nil {
			b.Fatal(err)
		}
	}
}
