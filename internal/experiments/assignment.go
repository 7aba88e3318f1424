package experiments

import (
	"math/rand"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/assign"
	"crsharing/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "E13",
		Title:      "Section 9 outlook — re-introducing the placement decision",
		PaperClaim: "the paper fixes the task-to-processor assignment; its outlook asks how placement interacts with resource scheduling",
		Run:        runE13,
	})
}

func runE13(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E13",
		Title:   "Placement policies combined with GreedyBalance resource scheduling",
		Headers: []string{"placement policy", "instances", "avg ratio to LB", "p90 ratio", "max ratio"},
	}
	trials := 80
	taskCount := 12
	m := 4
	if cfg.Quick {
		trials = 20
		taskCount = 8
		m = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	policies := append(assign.Policies(), assign.Random{Rng: rand.New(rand.NewSource(cfg.Seed))})
	ratios := make([][]float64, len(policies))

	for trial := 0; trial < trials; trial++ {
		tasks := assign.RandomTasks(rng, taskCount, 1, 5, 0.05, 1.0)
		for pi, p := range policies {
			placement := p.Assign(tasks, m)
			inst, err := placement.Instance(tasks)
			if err != nil {
				return nil, err
			}
			ev, err := evaluate(greedybalance.New(), inst)
			if err != nil {
				return nil, err
			}
			// Compare against the placement-independent lower bound (total
			// work plus longest task), not the per-instance bound: a bad
			// placement should be penalised, not excused by the weaker bound
			// of the instance it created.
			globalLB := placementFreeLowerBound(tasks)
			ratios[pi] = append(ratios[pi], float64(ev.Makespan)/float64(globalLB))
		}
	}
	for pi, p := range policies {
		s := stats.Summarize(ratios[pi])
		res.AddRow(p.Name(), trials, s.Mean, s.P90, s.Max)
	}
	res.AddNote("ratios are against the placement-independent work bound ⌈Σ r·p⌉, so they combine the cost of the placement and of the resource assignment")
	return res, nil
}

// placementFreeLowerBound is ⌈total work⌉ — valid for every placement since
// the shared resource serves at most one unit of work per step — but at least
// the longest single task (which must run on one processor under any
// placement).
func placementFreeLowerBound(tasks []assign.Task) int {
	var work float64
	longest := 0
	for _, t := range tasks {
		work += t.Work()
		if s := t.Steps(); s > longest {
			longest = s
		}
	}
	lb := int(work + 0.999999999)
	if longest > lb {
		lb = longest
	}
	if lb < 1 {
		lb = 1
	}
	return lb
}
