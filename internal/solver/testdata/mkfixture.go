//go:build ignore

// mkfixture writes the version-1 cache snapshot in snapshot-v1/: a few
// answers of registered solvers, requested in processor orders that are not
// canonical, flushed by a one-shard Persister. Run it from this directory:
//
//	go run mkfixture.go
//
// The committed snapshot was written at commit 2524259, whose cache stored
// each answer in the processor order of the request that solved it, so the
// file's processors are in that order.
package main

import (
	"context"
	"log"
	"os"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/solver"
)

func main() {
	const dir = "snapshot-v1"
	if err := os.RemoveAll(dir); err != nil {
		log.Fatal(err)
	}
	c := solver.NewCache(1, 64)
	reg := solver.Default()
	for _, req := range []struct {
		solver string
		inst   *core.Instance
	}{
		// Identical processors, listed out of canonical order.
		{"greedy-balance", core.NewInstance([]float64{0.9, 0.3}, []float64{0.2, 0.6, 0.4}, []float64{0.9, 0.3}, []float64{0.1})},
		// Sizes other than 1 and a zero requirement.
		{"greedy-balance", &core.Instance{Procs: [][]core.Job{
			{{Req: 0.5, Size: 2}, {Req: 0, Size: 1}},
			{{Req: 0.25, Size: 1.5}},
			{{Req: 0.75, Size: 1}, {Req: 0.4, Size: 3}},
		}}},
		// An exact solve with search statistics.
		{"branch-and-bound", gen.Figure3(4)},
		// A raced answer, named after its winner.
		{"portfolio", core.NewInstance([]float64{0.6, 0.6}, []float64{0.3, 0.8, 0.1}, []float64{0.6, 0.6})},
	} {
		s, err := reg.New(req.solver)
		if err != nil {
			log.Fatal(err)
		}
		if _, _, err := c.Evaluate(context.Background(), s, req.inst); err != nil {
			log.Fatal(err)
		}
	}
	p, err := solver.NewPersister(c, dir, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Close(); err != nil {
		log.Fatal(err)
	}
}
