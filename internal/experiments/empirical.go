package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/optresm"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/hypergraph"
	"crsharing/internal/manycore"
	"crsharing/internal/solver"
	"crsharing/internal/trace"
)

func init() {
	register(Experiment{
		ID:         "E1",
		Title:      "Observation 1 — work lower bound vs. every algorithm",
		PaperClaim: "no feasible schedule beats Σ r_ij·p_ij (nor the chain bound n)",
		Run:        runE1,
	})
	register(Experiment{
		ID:         "E2",
		Title:      "Theorem 3 — RoundRobin approximation ratio on random instances",
		PaperClaim: "RoundRobin / OPT ≤ 2, with 2 attained only by adversarial instances",
		Run:        runE2,
	})
	register(Experiment{
		ID:         "E3",
		Title:      "Theorem 5 — the m=2 dynamic program: optimality and O(n²) scaling",
		PaperClaim: "OptResAssignment is exact and runs in quadratic time; the priority-queue variant matches it",
		Run:        runE3,
	})
	register(Experiment{
		ID:         "E4",
		Title:      "Theorem 6 — OptResAssignment2 optimality for fixed m",
		PaperClaim: "the configuration-enumeration algorithm is exact for every fixed m",
		Run:        runE4,
	})
	register(Experiment{
		ID:         "E5",
		Title:      "Theorems 7/8 — GreedyBalance approximation ratio on random instances",
		PaperClaim: "GreedyBalance / OPT ≤ 2 − 1/m; the bound is tight only for the block construction",
		Run:        runE5,
	})
	register(Experiment{
		ID:         "E6",
		Title:      "Lemmas 2, 5, 6 — hypergraph bounds on balanced schedules",
		PaperClaim: "the component-counting bounds hold for every non-wasting, progressive, balanced schedule and lower-bound the optimum",
		Run:        runE6,
	})
	register(Experiment{
		ID:         "E7",
		Title:      "Many-core substrate — bandwidth policies on synthetic traces (paper §1 motivation)",
		PaperClaim: "demand-aware bandwidth assignment (the paper's setting) beats demand-oblivious arbitration on I/O-intensive workloads",
		Run:        runE7,
	})
	register(Experiment{
		ID:         "E8",
		Title:      "Section 9 outlook — arbitrary job sizes (heuristic extension)",
		PaperClaim: "the paper conjectures the results transfer to arbitrary sizes; the balanced greedy stays within a factor 2 of the lower bound empirically",
		Run:        runE8,
	})
}

func runE1(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E1",
		Title:   "Observation 1 — work lower bound vs. every algorithm",
		Headers: []string{"algorithm", "instances", "min ratio to LB"},
	}
	trials := 400
	if cfg.Quick {
		trials = 60
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	schedulers := []solver.Kernel{
		roundrobin.New(),
		greedybalance.New(),
		greedybalance.NewWithTie(greedybalance.SmallerRemaining),
		greedybalance.NewUnbalanced(greedybalance.LargerRemaining),
	}
	minRatio := make([]float64, len(schedulers))
	for i := range minRatio {
		minRatio[i] = math.Inf(1)
	}
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(7)
		inst := gen.RandomUneven(rng, m, 1, 8, 0.02, 1.0)
		lb := core.LowerBounds(inst).Best()
		for si, s := range schedulers {
			ev, err := evaluate(s, inst)
			if err != nil {
				return nil, err
			}
			if ev.Makespan < lb {
				return nil, fmt.Errorf("Observation 1 violated: %s makespan %d is below the lower bound %d on %v", s.Name(), ev.Makespan, lb, inst)
			}
			if ratio := float64(ev.Makespan) / float64(lb); ratio < minRatio[si] {
				minRatio[si] = ratio
			}
		}
	}
	for si, s := range schedulers {
		res.AddRow(s.Name(), trials, minRatio[si])
	}
	res.AddNote("every schedule meets the Observation 1 / chain lower bound (a schedule beating it fails the run)")
	return res, nil
}

func runE2(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E2",
		Title:   "Theorem 3 — RoundRobin ratio on random two-processor instances",
		Headers: []string{"requirement range", "instances", "avg RR/OPT", "max RR/OPT", "bound"},
	}
	trials := 200
	maxJobs := 14
	if cfg.Quick {
		trials = 40
		maxJobs = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	ranges := []struct {
		name   string
		lo, hi float64
	}{
		{"uniform [0.05,1.00]", 0.05, 1.0},
		{"heavy [0.60,1.00]", 0.6, 1.0},
		{"light [0.05,0.30]", 0.05, 0.3},
	}
	for _, rg := range ranges {
		var sum, worst float64
		for trial := 0; trial < trials; trial++ {
			inst := gen.Random(rng, 2, 1+rng.Intn(maxJobs), rg.lo, rg.hi)
			rr, err := evaluate(roundrobin.New(), inst)
			if err != nil {
				return nil, err
			}
			opt, err := optres2.New().Makespan(inst)
			if err != nil {
				return nil, err
			}
			ratio := float64(rr.Makespan) / float64(opt)
			sum += ratio
			if ratio > worst {
				worst = ratio
			}
			if ratio > 2+1e-9 {
				return nil, fmt.Errorf("Theorem 3 violated: RoundRobin/OPT ratio %.3f exceeds 2 on %v", ratio, inst)
			}
		}
		res.AddRow(rg.name, trials, sum/float64(trials), worst, 2.0)
	}
	return res, nil
}

func runE3(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E3",
		Title:   "Theorem 5 — m=2 dynamic program scaling",
		Headers: []string{"n (jobs/proc)", "dense DP", "PQ variant", "time dense", "time PQ", "time ratio vs prev"},
	}
	sizes := []int{64, 128, 256, 512, 1024, 2048}
	if cfg.Quick {
		sizes = []int{32, 64, 128}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	var prev time.Duration
	for _, n := range sizes {
		inst := gen.Random(rng, 2, n, 0.05, 1.0)
		start := time.Now()
		dense, err := optres2.New().Makespan(inst)
		if err != nil {
			return nil, err
		}
		denseTime := time.Since(start)
		start = time.Now()
		pq, err := optres2.NewPQ().Makespan(inst)
		if err != nil {
			return nil, err
		}
		pqTime := time.Since(start)
		growth := "-"
		if prev > 0 {
			growth = fmt.Sprintf("%.2fx", float64(denseTime)/float64(prev))
		}
		prev = denseTime
		if dense != pq {
			return nil, fmt.Errorf("Theorem 5 check failed at n=%d: dense DP %d vs PQ variant %d", n, dense, pq)
		}
		res.AddRow(n, dense, pq, denseTime.Round(time.Microsecond).String(), pqTime.Round(time.Microsecond).String(), growth)
	}
	// Cross-check against brute force on small instances.
	checks := 40
	if cfg.Quick {
		checks = 15
	}
	for i := 0; i < checks; i++ {
		inst := gen.RandomUneven(rng, 2, 1, 5, 0.05, 1.0)
		opt, err := optres2.New().Makespan(inst)
		if err != nil {
			return nil, err
		}
		bf, err := bruteforce.Makespan(inst)
		if err != nil {
			return nil, err
		}
		if opt != bf {
			return nil, fmt.Errorf("Theorem 5 check failed: dense DP %d vs brute force %d on %v", opt, bf, inst)
		}
	}
	res.AddNote("brute-force cross-check: all %d small instances agree (doubling n should roughly quadruple the dense DP time)", checks)
	return res, nil
}

func runE4(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E4",
		Title:   "Theorem 6 — OptResAssignment2 optimality for fixed m",
		Headers: []string{"m", "instances", "agree with oracle", "max jobs/proc"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	type cfgRow struct {
		m, trials, maxJobs int
	}
	rows := []cfgRow{{2, 40, 6}, {3, 25, 4}, {4, 12, 3}}
	if cfg.Quick {
		rows = []cfgRow{{2, 12, 4}, {3, 8, 3}, {4, 4, 2}}
	}
	for _, rc := range rows {
		for trial := 0; trial < rc.trials; trial++ {
			inst := gen.RandomUneven(rng, rc.m, 1, rc.maxJobs, 0.05, 1.0)
			ev, err := evaluate(optresm.New(), inst)
			if err != nil {
				return nil, err
			}
			got := ev.Makespan
			var want int
			if rc.m == 2 {
				want, err = optres2.New().Makespan(inst)
			} else {
				want, err = bruteforce.Makespan(inst)
			}
			if err != nil {
				return nil, err
			}
			if got != want {
				return nil, fmt.Errorf("Theorem 6 check failed: m=%d trial %d: OptResAssignment2 %d vs oracle %d on %v", rc.m, trial, got, want, inst)
			}
		}
		res.AddRow(rc.m, rc.trials, fmt.Sprintf("%d/%d", rc.trials, rc.trials), rc.maxJobs)
	}
	return res, nil
}

func runE5(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E5",
		Title:   "Theorems 7/8 — GreedyBalance ratio on random instances",
		Headers: []string{"m", "instances", "avg GB/OPT", "max GB/OPT", "2-1/m"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	type cfgRow struct {
		m, trials, maxJobs int
	}
	rows := []cfgRow{{2, 120, 8}, {3, 50, 4}, {4, 20, 3}}
	if cfg.Quick {
		rows = []cfgRow{{2, 30, 5}, {3, 15, 3}}
	}
	for _, rc := range rows {
		var sum, worst float64
		for trial := 0; trial < rc.trials; trial++ {
			inst := gen.RandomUneven(rng, rc.m, 1, rc.maxJobs, 0.05, 1.0)
			gb, err := evaluate(greedybalance.New(), inst)
			if err != nil {
				return nil, err
			}
			opt, err := cfg.ExactMakespan(inst)
			if err != nil {
				return nil, err
			}
			ratio := float64(gb.Makespan) / float64(opt)
			sum += ratio
			if ratio > worst {
				worst = ratio
			}
			bound := 2 - 1.0/float64(rc.m)
			if ratio > bound+1e-9 {
				return nil, fmt.Errorf("Theorems 7/8 violated: m=%d GreedyBalance/OPT ratio %.3f exceeds %.3f on %v", rc.m, ratio, bound, inst)
			}
		}
		res.AddRow(rc.m, rc.trials, sum/float64(rc.trials), worst, 2-1.0/float64(rc.m))
	}
	return res, nil
}

func runE6(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E6",
		Title:   "Lemmas 2, 5, 6 — hypergraph bounds on balanced schedules",
		Headers: []string{"check", "instances", "holds", "avg slack"},
	}
	trials := 200
	if cfg.Quick {
		trials = 40
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	lemma2OK, obs2OK, lemma5OK, lemma6OK := 0, 0, 0, 0
	var slack5, slack6 float64
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(4)
		inst := gen.RandomUneven(rng, m, 1, 6, 0.05, 1.0)
		ev, err := evaluate(greedybalance.New(), inst)
		if err != nil {
			return nil, err
		}
		r, err := core.Execute(inst, ev.Schedule)
		if err != nil {
			return nil, err
		}
		g, err := hypergraph.Build(r)
		if err != nil {
			return nil, err
		}
		if g.CheckObservation2() == nil {
			obs2OK++
		}
		if g.CheckLemma2() == nil {
			lemma2OK++
		}
		if g.Lemma5Bound() <= r.Makespan() {
			lemma5OK++
			slack5 += float64(r.Makespan() - g.Lemma5Bound())
		}
		if g.Lemma6Bound() <= float64(inst.MaxJobs())+1e-9 {
			lemma6OK++
			slack6 += float64(inst.MaxJobs()) - g.Lemma6Bound()
		}
	}
	res.AddRow("Observation 2 (consecutive components)", trials, fmt.Sprintf("%d/%d", obs2OK, trials), "-")
	res.AddRow("Lemma 2 (|Ck| >= #k+qk-1)", trials, fmt.Sprintf("%d/%d", lemma2OK, trials), "-")
	res.AddRow("Lemma 5 bound <= makespan", trials, fmt.Sprintf("%d/%d", lemma5OK, trials), slack5/float64(trials))
	res.AddRow("Lemma 6 bound <= n", trials, fmt.Sprintf("%d/%d", lemma6OK, trials), slack6/float64(trials))
	return res, nil
}

func runE7(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E7",
		Title:   "Many-core substrate — bandwidth policies on synthetic traces",
		Headers: []string{"workload", "policy", "ticks", "ratio to LB", "bus util %", "stall core-ticks"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	type scenario struct {
		name  string
		cores int
		build func() ([]*manycore.Task, error)
	}
	cores := 16
	tasks := 16
	vms := 24
	if cfg.Quick {
		cores, tasks, vms = 8, 8, 12
	}
	scenarios := []scenario{
		{
			name:  fmt.Sprintf("scientific %d cores", cores),
			cores: cores,
			build: func() ([]*manycore.Task, error) {
				return trace.Scientific(rng, trace.DefaultScientificConfig(tasks))
			},
		},
		{
			name:  fmt.Sprintf("vm-consolidation %d cores", cores),
			cores: cores,
			build: func() ([]*manycore.Task, error) {
				return trace.VMs(rng, trace.DefaultVMConfig(vms))
			},
		},
	}
	for _, sc := range scenarios {
		taskList, err := sc.build()
		if err != nil {
			return nil, err
		}
		w := manycore.NewWorkload(sc.cores)
		w.AssignRoundRobin(taskList)
		metrics, err := manycore.Compare(w, manycore.Policies()...)
		if err != nil {
			return nil, err
		}
		for _, m := range metrics {
			res.AddRow(sc.name, m.Policy, m.Ticks, m.RatioToLowerBound(), 100*m.Utilization(), m.StallTicks)
		}
	}
	res.AddNote("equal-share is the demand-oblivious baseline; greedy-balance is the paper's GreedyBalance rule stepped tick by tick (more phases left first, ties to the running phase's larger remaining work), so its ticks equal the offline greedybalance makespan of the flattened queues; longest-queue-first is the volume-aware contrast, serving the most remaining queue volume first")
	return res, nil
}

func runE8(cfg Config) (*Result, error) {
	res := &Result{
		ID:      "E8",
		Title:   "Section 9 outlook — arbitrary job sizes",
		Headers: []string{"algorithm", "instances", "avg ratio to LB", "max ratio to LB"},
	}
	trials := 120
	if cfg.Quick {
		trials = 25
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	schedulers := []solver.Kernel{greedybalance.New(), roundrobin.New()}
	sums := make([]float64, len(schedulers))
	worst := make([]float64, len(schedulers))
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(4)
		inst := gen.RandomSized(rng, m, 1+rng.Intn(5), 0.05, 1.0, 4.0)
		lb := core.LowerBounds(inst).Best()
		for si, s := range schedulers {
			ev, err := evaluate(s, inst)
			if err != nil {
				return nil, err
			}
			ratio := float64(ev.Makespan) / float64(lb)
			sums[si] += ratio
			if ratio > worst[si] {
				worst[si] = ratio
			}
		}
	}
	for si, s := range schedulers {
		res.AddRow(s.Name(), trials, sums[si]/float64(trials), worst[si])
	}
	res.AddNote("ratios are against the lower bound, not the (unknown) optimum, so they overstate the true approximation factor")
	return res, nil
}
