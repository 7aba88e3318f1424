package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"crsharing/internal/algo/branchbound"
	"crsharing/internal/algo/chunked"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/optresm"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/manycore"
	"crsharing/internal/solver"
	"crsharing/internal/stats"
	"crsharing/internal/trace"
)

func init() {
	register(Experiment{
		ID:         "E9",
		Title:      "Ablation — how much of GreedyBalance's guarantee comes from the balance rule",
		PaperClaim: "the analysis of Section 8 rests on the balanced property; the tie-breaking rule is secondary",
		Run:        runE9,
	})
	register(Experiment{
		ID:         "E10",
		Title:      "Ablation — Lemma 1 canonicalisation applied to deliberately bad schedules",
		PaperClaim: "every schedule can be made non-wasting, progressive and nested without increasing its makespan (Lemma 1)",
		Run:        runE10,
	})
	register(Experiment{
		ID:         "E11",
		Title:      "Ablation — lookahead windows and exact-solver cost",
		PaperClaim: "the exact algorithms are polynomial but impractical (Theorems 5/6); bounded lookahead recovers most of the gap",
		Run:        runE11,
	})
	register(Experiment{
		ID:         "E12",
		Title:      "Substrate scaling — simulator behaviour as the core count grows",
		PaperClaim: "the motivation (§1): the more cores share the channel, the more the bandwidth distribution dominates performance",
		Run:        runE12,
	})
}

func runE9(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E9",
		Title:   "Ablation — balance rule vs. tie-break rule",
		Headers: []string{"variant", "instances", "avg ratio to OPT", "max ratio to OPT", "balanced schedules"},
	}
	trials := 120
	maxJobs := 6
	if cfg.Quick {
		trials = 30
		maxJobs = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	variants := []*greedybalance.Scheduler{
		greedybalance.New(),
		greedybalance.NewWithTie(greedybalance.SmallerRemaining),
		greedybalance.NewWithTie(greedybalance.ProcessorIndex),
		greedybalance.NewUnbalanced(greedybalance.LargerRemaining),
		greedybalance.NewUnbalanced(greedybalance.SmallerRemaining),
	}
	type agg struct {
		ratios   []float64
		balanced int
	}
	aggs := make([]agg, len(variants))
	for trial := 0; trial < trials; trial++ {
		inst := gen.RandomUneven(rng, 2, 1, maxJobs, 0.05, 1.0)
		opt, err := optres2.New().Makespan(inst)
		if err != nil {
			return nil, err
		}
		for vi, v := range variants {
			ev, err := evaluate(v, inst)
			if err != nil {
				return nil, err
			}
			aggs[vi].ratios = append(aggs[vi].ratios, float64(ev.Makespan)/float64(opt))
			if ev.Properties.Balanced {
				aggs[vi].balanced++
			}
		}
	}
	for vi, v := range variants {
		s := stats.Summarize(aggs[vi].ratios)
		res.AddRow(v.Name(), trials, s.Mean, s.Max, fmt.Sprintf("%d/%d", aggs[vi].balanced, trials))
	}
	res.AddNote("the unbalanced variants lose the Definition-5 property on a fraction of the instances and show the largest worst-case ratios")
	return res, nil
}

func runE10(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E10",
		Title:   "Ablation — Lemma 1 canonicalisation",
		Headers: []string{"source schedule", "instances", "avg makespan before", "avg makespan after", "increased", "all properties after"},
	}
	trials := 150
	if cfg.Quick {
		trials = 40
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 10))

	type sourceDef struct {
		name  string
		build func(inst *core.Instance) (*core.Schedule, error)
	}
	sources := []sourceDef{
		{"round-robin", func(inst *core.Instance) (*core.Schedule, error) {
			return roundrobin.New().Schedule(context.Background(), inst)
		}},
		{"wasteful-random", func(inst *core.Instance) (*core.Schedule, error) { return wastefulRandomSchedule(rng, inst), nil }},
	}
	for _, src := range sources {
		var before, after []float64
		increased := 0
		allProps := 0
		for trial := 0; trial < trials; trial++ {
			m := 2 + rng.Intn(3)
			inst := gen.RandomUneven(rng, m, 1, 5, 0.05, 1.0)
			orig, err := src.build(inst)
			if err != nil {
				return nil, err
			}
			origRes, err := core.Execute(inst, orig)
			if err != nil {
				return nil, err
			}
			canon, err := core.Canonicalize(inst, orig)
			if err != nil {
				return nil, err
			}
			canonRes, err := core.Execute(inst, canon)
			if err != nil {
				return nil, err
			}
			before = append(before, float64(origRes.Makespan()))
			after = append(after, float64(canonRes.Makespan()))
			if canonRes.Makespan() > origRes.Makespan() {
				increased++
			}
			p := core.CheckProperties(canonRes)
			if p.NonWasting && p.Progressive && p.Nested {
				allProps++
			}
		}
		res.AddRow(src.name, trials, stats.Mean(before), stats.Mean(after), increased, fmt.Sprintf("%d/%d", allProps, trials))
	}
	res.AddNote("'increased' counts canonicalisations that made the makespan worse — Lemma 1 says this must be zero")
	return res, nil
}

// wastefulRandomSchedule builds a feasible but deliberately sloppy schedule:
// random fractions of the resource, random processor order, never more than
// 70% of the capacity used.
func wastefulRandomSchedule(rng *rand.Rand, inst *core.Instance) *core.Schedule {
	b := core.NewBuilder(inst)
	return b.BuildGreedy(func(b *core.Builder) []float64 {
		m := b.NumProcessors()
		shares := make([]float64, m)
		avail := 0.3 + 0.4*rng.Float64()
		for _, i := range rng.Perm(m) {
			if !b.Active(i) || avail <= 0 {
				continue
			}
			give := avail * (0.3 + 0.7*rng.Float64())
			if d := b.DemandThisStep(i); give > d {
				give = d
			}
			shares[i] = give
			avail -= give
		}
		return shares
	})
}

func runE11(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E11",
		Title:   "Ablation — lookahead windows and exact-solver cost",
		Headers: []string{"algorithm", "avg ratio to OPT", "max ratio to OPT", "avg time"},
	}
	trials := 25
	m := 3
	jobs := 6
	if cfg.Quick {
		trials = 8
		jobs = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	contenders := []solver.Kernel{
		roundrobin.New(),
		greedybalance.New(),
		chunked.New(2),
		chunked.New(3),
		branchbound.New(),
		optresm.New(),
	}
	ratios := make([][]float64, len(contenders))
	times := make([]time.Duration, len(contenders))
	for trial := 0; trial < trials; trial++ {
		inst := gen.Random(rng, m, jobs, 0.05, 1.0)
		opt, err := cfg.ExactMakespan(inst)
		if err != nil {
			return nil, err
		}
		for ci, c := range contenders {
			start := time.Now()
			ev, err := evaluate(c, inst)
			if err != nil {
				return nil, err
			}
			times[ci] += time.Since(start)
			ratios[ci] = append(ratios[ci], float64(ev.Makespan)/float64(opt))
		}
	}
	for ci, c := range contenders {
		s := stats.Summarize(ratios[ci])
		res.AddRow(c.Name(), s.Mean, s.Max, (times[ci] / time.Duration(trials)).Round(time.Microsecond).String())
	}
	res.AddNote("window w interpolates between the RoundRobin-style per-column schedule and the exact algorithm; the exact solvers confirm each other")
	return res, nil
}

func runE12(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E12",
		Title:   "Substrate scaling — simulator behaviour as the core count grows",
		Headers: []string{"cores", "policy", "ticks", "ratio to LB", "bus util %"},
	}
	coreCounts := []int{4, 16, 64}
	if cfg.Quick {
		coreCounts = []int{4, 16}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	for _, cores := range coreCounts {
		tasks, err := trace.Scientific(rng, trace.DefaultScientificConfig(cores))
		if err != nil {
			return nil, err
		}
		w := manycore.NewWorkload(cores)
		w.AssignRoundRobin(tasks)
		metrics, err := manycore.Compare(w, manycore.EqualShare{}, manycore.GreedyBalance{})
		if err != nil {
			return nil, err
		}
		for _, m := range metrics {
			res.AddRow(cores, m.Policy, m.Ticks, m.RatioToLowerBound(), 100*m.Utilization())
		}
	}
	res.AddNote("demand-aware allocation always wins; the gap is largest when per-core demands are comparable to the fair share (few cores) and shrinks once the channel is heavily oversubscribed, where any work-conserving split keeps the bus saturated")
	return res, nil
}
