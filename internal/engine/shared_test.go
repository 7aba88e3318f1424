package engine

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/solver"
)

// sharedSolverCorpus returns distinct instances on which the exact kernels
// do real work: two mutation chains of a small Partition gadget (the online
// workload's shape), GreedyBalance worst cases the search improves on, and
// random instances.
func sharedSolverCorpus(t *testing.T) []*core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var insts []*core.Instance
	for _, elems := range [][]int64{{3, 5, 4, 2, 6, 4}, {7, 3, 2, 4, 5, 3}} {
		g, err := gen.PartitionGadget(elems, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, gen.MutateChain(rng, g, 5)...)
	}
	insts = append(insts,
		gen.GreedyWorstCase(4, 2, 1.0/(20*4*5)),
		gen.GreedyWorstCase(3, 2, 1.0/(20*3*4)),
		gen.RandomUneven(rng, 4, 1, 4, 0.05, 0.95),
		gen.Random(rng, 3, 3, 0.1, 0.9),
	)
	return insts
}

// sameEvaluation reports whether two evaluations carry the same answer: the
// schedule bit for bit, makespan, waste, properties and algorithm.
func sameEvaluation(a, b *solver.Evaluation) bool {
	if a.Makespan != b.Makespan || math.Float64bits(a.Wasted) != math.Float64bits(b.Wasted) ||
		a.Properties != b.Properties || a.Algorithm != b.Algorithm ||
		a.Schedule.Steps() != b.Schedule.Steps() {
		return false
	}
	for t, row := range a.Schedule.Alloc {
		if len(row) != len(b.Schedule.Alloc[t]) {
			return false
		}
		for i, x := range row {
			if math.Float64bits(x) != math.Float64bits(b.Schedule.Alloc[t][i]) {
				return false
			}
		}
	}
	return true
}

// TestSharedSolversAreSafe: the engine runs one solver per name for every
// request, so concurrent requests share one portfolio and one
// branch-and-bound kernel. Eight goroutines solve distinct instances through
// one cache-less engine, both names interleaved; every answer must equal a
// solve of the same instance by a solver of its own from Registry.New, and
// each name's factory runs once. Run under -race, this also checks that the
// shared solvers hold no per-solve state.
func TestSharedSolversAreSafe(t *testing.T) {
	names := []string{"portfolio", "branch-and-bound"}
	def := solver.Default()
	reg := solver.NewRegistry()
	built := map[string]*atomic.Int64{}
	for _, name := range names {
		n := new(atomic.Int64)
		built[name] = n
		reg.Register(name, func() solver.Solver {
			n.Add(1)
			sv, err := def.New(name)
			if err != nil {
				panic(err)
			}
			return sv
		})
	}
	eng, err := New(Config{Registry: reg, DefaultSolver: "portfolio", MaxConcurrent: 8})
	if err != nil {
		t.Fatal(err)
	}

	insts := sharedSolverCorpus(t)
	ctx := context.Background()
	want := make(map[string][]*solver.Evaluation)
	for _, name := range names {
		for _, inst := range insts {
			sv, err := def.New(name)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := solver.Evaluate(ctx, sv, inst)
			if err != nil {
				t.Fatalf("%s: reference solve: %v", name, err)
			}
			want[name] = append(want[name], ev)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, 2*len(names)*len(insts))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				for idx := w; idx < len(insts); idx += workers {
					for k := range names {
						name := names[(k+w+rep)%len(names)]
						res, err := eng.Solve(ctx, Request{Solver: name, Instance: insts[idx]})
						switch {
						case err != nil:
							errs <- name + ": " + err.Error()
						case !sameEvaluation(res.Evaluation, want[name][idx]):
							errs <- name + ": instance " + insts[idx].String() + ": shared solver's answer differs from a fresh solver's"
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for _, name := range names {
		if n := built[name].Load(); n != 1 {
			t.Errorf("%s: factory ran %d times, want once", name, n)
		}
	}
}
