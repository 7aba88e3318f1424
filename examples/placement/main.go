// Placement: the Section 9 outlook scenario — tasks are not pre-assigned to
// processors. The example places a bag of tasks with different policies
// (round robin, LPT, least-jobs, random), schedules the shared resource with
// GreedyBalance on each resulting instance, and shows how much of the final
// makespan is due to placement versus resource assignment.
//
// Run with:
//
//	go run ./examples/placement
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/assign"
	"crsharing/internal/core"
	"crsharing/internal/render"
	"crsharing/internal/solver"
)

func main() {
	const (
		m         = 4
		taskCount = 10
	)
	rng := rand.New(rand.NewSource(2014))
	tasks := assign.RandomTasks(rng, taskCount, 1, 5, 0.1, 1.0)

	var totalWork float64
	for _, t := range tasks {
		totalWork += t.Work()
	}
	fmt.Printf("%d tasks, total work %.2f, %d processors\n\n", taskCount, totalWork, m)

	policies := append(assign.Policies(), assign.Random{Rng: rng})
	schedules := make(map[string]*core.Schedule)
	var reference *core.Instance

	fmt.Printf("%-22s %9s %9s %s\n", "placement", "makespan", "ratio-LB", "per-processor loads")
	for _, p := range policies {
		placement := p.Assign(tasks, m)
		inst, err := placement.Instance(tasks)
		if err != nil {
			log.Fatal(err)
		}
		ev, err := solver.Evaluate(context.Background(), solver.Adapt(greedybalance.New()), inst)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %9d %9.3f %v\n", p.Name(), ev.Makespan, ev.Ratio, roundLoads(placement.Loads(tasks)))
		if p.Name() == "assign-lpt" {
			reference = inst
			schedules["greedy-balance on LPT placement"] = ev.Schedule
		}
	}

	// Zoom in on the LPT placement: show the first steps of the schedule.
	if reference != nil {
		res, err := core.Execute(reference, schedules["greedy-balance on LPT placement"])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nGantt chart of GreedyBalance on the LPT placement (first 20 steps):")
		fmt.Print(render.Gantt(res, render.GanttOptions{MaxSteps: 20}))
	}
}

func roundLoads(loads []float64) []float64 {
	out := make([]float64, len(loads))
	for i, l := range loads {
		out[i] = float64(int(l*100+0.5)) / 100
	}
	return out
}
