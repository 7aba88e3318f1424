package branchbound_test

import (
	"testing"

	"crsharing/internal/algo/branchbound"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// TestAnswersSurviveLaterSolves: a kernel returns its seed itself when the
// search never beats it, and otherwise copies the improved incumbent out of
// the seed's rows; the seed's execution and the suffix table live in the
// pooled scratch. So each answer is solved as A after a larger B has grown
// the scratch, then B and A run again on the same goroutine, taking A's
// scratch from the pool, and A's schedule must be unchanged. The cases cover
// a greedy seed returned as is, an improved incumbent, and an accepted warm
// start returned as is.
func TestAnswersSurviveLaterSolves(t *testing.T) {
	easy := core.NewInstance([]float64{0.5, 0.5}, []float64{0.5, 0.5}, []float64{0.25})
	hard := gen.GreedyWorstCase(4, 2, 1.0/(20*4*5))
	other := gen.GreedyWorstCase(5, 2, 1.0/(20*5*6))
	greedy, err := greedybalance.New().Schedule(easy)
	if err != nil {
		t.Fatal(err)
	}
	greedyHard, err := greedybalance.New().Schedule(hard)
	if err != nil {
		t.Fatal(err)
	}

	k := branchbound.New()
	t.Run("serial", func(t *testing.T) {
		hint, _, _ := solveCounted(t, k, hard, nil)
		cases := []struct {
			name string
			inst *core.Instance
			hint *core.Schedule
			// check confirms the case takes the path it is named for.
			check func(a *core.Schedule, warmSeed int64) bool
		}{
			{"seed", easy, nil, func(a *core.Schedule, _ int64) bool { return sameSchedule(a, greedy) }},
			{"improved", hard, nil, func(a *core.Schedule, _ int64) bool {
				return core.MustMakespan(hard, a) < core.MustMakespan(hard, greedyHard)
			}},
			{"warm", hard, hint, func(_ *core.Schedule, warmSeed int64) bool { return warmSeed > 0 }},
		}
		for _, c := range cases {
			// Solving the larger instance first grows the pooled scratch,
			// so A runs on buffers the next solve of it overwrites.
			solveCounted(t, k, other, nil)
			a, _, warmSeed := solveCounted(t, k, c.inst, c.hint)
			if !c.check(a, warmSeed) {
				t.Fatalf("%s: the solve does not take the path the case is named for", c.name)
			}
			snap := a.Clone()
			solveCounted(t, k, other, nil)
			solveCounted(t, k, c.inst, c.hint)
			if !sameSchedule(a, snap) {
				t.Fatalf("%s: a later solve changed an earlier answer:\n%v\nwas\n%v", c.name, a, snap)
			}
		}
	})
}
