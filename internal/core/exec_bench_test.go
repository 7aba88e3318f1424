package core_test

import (
	"context"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// gadgetSchedule returns the 10-element Partition gadget of Theorem 4
// (m=10, 30 unit jobs) and GreedyBalance's 5-step schedule for it.
func gadgetSchedule(tb testing.TB) (*core.Instance, *core.Schedule) {
	tb.Helper()
	inst, err := gen.PartitionGadget([]int64{17, 23, 29, 31, 41, 17, 23, 29, 31, 41}, 0.01)
	if err != nil {
		tb.Fatal(err)
	}
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		tb.Fatal(err)
	}
	return inst, sched
}

// BenchmarkExecute runs the progress law over the gadget's greedy schedule.
func BenchmarkExecute(b *testing.B) {
	inst, sched := gadgetSchedule(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := core.Execute(inst, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckProperties runs one round of the Section-4 checks the
// oracle makes on a balanced schedule: Definitions 2-5 and Propositions 1
// and 2.
func BenchmarkCheckProperties(b *testing.B) {
	inst, sched := gadgetSchedule(b)
	res, err := core.Execute(inst, sched)
	if err != nil {
		b.Fatal(err)
	}
	if !core.CheckProperties(res).Balanced {
		b.Fatal("the greedy schedule is not balanced")
	}
	b.ReportAllocs()
	for b.Loop() {
		core.CheckProperties(res)
		if err := core.CheckProposition1(res); err != nil {
			b.Fatal(err)
		}
		if err := core.CheckProposition2(res); err != nil {
			b.Fatal(err)
		}
	}
}
