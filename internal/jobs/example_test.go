package jobs_test

import (
	"context"
	"fmt"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/jobs"
	"crsharing/internal/solver"
)

// Example walks the asynchronous client flow: submit a solve, watch its
// event stream, then read the finished record — the same sequence the HTTP
// layer drives through POST /v1/jobs, GET /v1/jobs/{id}/events and
// GET /v1/jobs/{id}.
func Example() {
	eng, err := engine.New(engine.Config{
		Registry: solver.Default(),
		Cache:    solver.NewCache(4, 64),
	})
	if err != nil {
		panic(err)
	}
	manager, err := jobs.New(jobs.Config{Engine: eng, Workers: 1})
	if err != nil {
		panic(err)
	}
	defer manager.Close(context.Background())

	inst := core.NewInstance(
		[]float64{0.5, 0.5, 0.5},
		[]float64{1.0},
	)
	snap, err := manager.Submit(jobs.Request{Solver: "branch-and-bound", Instance: inst})
	if err != nil {
		panic(err)
	}
	fmt.Println("submitted:", snap.State)

	// Drain the event stream; the manager closes it at the terminal state.
	_, events, unsub, err := manager.Subscribe(snap.ID)
	if err != nil {
		panic(err)
	}
	defer unsub()
	for range events {
	}

	final, err := manager.Get(snap.ID)
	if err != nil {
		panic(err)
	}
	fmt.Println("state:", final.State)
	fmt.Println("makespan:", final.Result.Makespan)
	fmt.Println("schedule steps:", final.Result.Schedule.Steps())
	// Output:
	// submitted: pending
	// state: done
	// makespan: 3
	// schedule steps: 3
}
