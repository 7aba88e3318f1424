package solver

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// TestServedAnswersIndependentOfTiming solves the same instances many times
// at once, the way a server reuses one solver per name across concurrent
// requests, and requires every answer to be bit-identical to a cold solve by
// a freshly built solver. The greedy worst cases make branch-and-bound
// improve on its seed through a search with many equal-makespan schedules,
// the ties a racing kernel would break by timing; the m=13 gadget is beyond
// the configuration enumeration, so the portfolio's branch-and-bound member
// answers there next to the heuristics.
func TestServedAnswersIndependentOfTiming(t *testing.T) {
	const goroutines, rounds = 8, 3
	gadget, err := gen.PartitionGadget([]int64{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 4}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	insts := []*core.Instance{
		gen.GreedyWorstCase(3, 3, 1.0/(20*3*4)),
		gen.GreedyWorstCase(4, 2, 1.0/(20*4*5)),
		gen.GreedyWorstCase(4, 3, 1.0/(20*4*5)),
		gadget,
	}
	reg := Default()
	for _, name := range []string{"portfolio", "branch-and-bound", "branch-and-bound-parallel"} {
		want := make([]*core.Schedule, len(insts))
		for i, inst := range insts {
			cold, err := reg.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], _, err = cold.Solve(context.Background(), inst); err != nil {
				t.Fatalf("%s, instance %d: cold solve: %v", name, i, err)
			}
		}
		shared, err := reg.New(name)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for k := range insts {
						i := (g + k) % len(insts) // stagger, so different instances overlap
						got, _, err := shared.Solve(context.Background(), insts[i])
						if err == nil && !bitIdentical(got, want[i]) {
							err = fmt.Errorf("answer differs from the cold solve:\n%v\nwant\n%v", got, want[i])
						}
						if err != nil {
							errs <- fmt.Errorf("%s, instance %d, goroutine %d, round %d: %w", name, i, g, r, err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}

// bitIdentical reports whether two schedules have the same shape and the
// same float64 bits in every cell.
func bitIdentical(a, b *core.Schedule) bool {
	if a.Steps() != b.Steps() || a.NumProcessors() != b.NumProcessors() {
		return false
	}
	for t := range a.Alloc {
		for i := range a.Alloc[t] {
			if math.Float64bits(a.Alloc[t][i]) != math.Float64bits(b.Alloc[t][i]) {
				return false
			}
		}
	}
	return true
}
