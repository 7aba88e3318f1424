package core

import (
	"math/rand"
	"testing"
)

// figure2Nested reproduces the nested schedule of Figure 2b: the half-size
// jobs of processor 1 are paired with one full job of processor 2 and then
// one of processor 3, each full job split across two steps.
func figure2Instance() *Instance {
	return NewInstance(
		[]float64{0.5, 0.5, 0.5, 0.5},
		[]float64{1.0},
		[]float64{1.0},
	)
}

func figure2NestedSchedule() *Schedule {
	// Figure 2b: p2's job starts in step 1, is interrupted while p3's job
	// runs to completion in steps 2-3, and resumes and completes in step 4.
	// The later-started job finishes first, so the lifetimes nest.
	s := NewSchedule(4, 3)
	s.Alloc[0] = []float64{0.5, 0.5, 0}
	s.Alloc[1] = []float64{0.5, 0, 0.5}
	s.Alloc[2] = []float64{0.5, 0, 0.5}
	s.Alloc[3] = []float64{0.5, 0.5, 0}
	return s
}

func figure2UnnestedSchedule() *Schedule {
	// Figure 2c: p2's job starts in step 1, p3's job starts in step 2, p2's
	// job completes in step 3 while p3's is still unfinished — the crossing
	// pattern forbidden by Definition 4.
	s := NewSchedule(4, 3)
	s.Alloc[0] = []float64{0.5, 0.5, 0}
	s.Alloc[1] = []float64{0.5, 0, 0.5}
	s.Alloc[2] = []float64{0.5, 0.5, 0}
	s.Alloc[3] = []float64{0.5, 0, 0.5}
	return s
}

func TestFigure2NestedSchedule(t *testing.T) {
	inst := figure2Instance()
	res, err := Execute(inst, figure2NestedSchedule())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() || res.Makespan() != 4 {
		t.Fatalf("nested schedule should finish in 4 steps, got finished=%v makespan=%d", res.Finished(), res.Makespan())
	}
	p := CheckProperties(res)
	if !p.NonWasting || !p.Progressive {
		t.Fatalf("Figure 2b schedule should be non-wasting and progressive, got %v", p)
	}
	if !p.Nested {
		t.Fatalf("Figure 2b schedule should be nested")
	}
}

func TestFigure2UnnestedSchedule(t *testing.T) {
	inst := figure2Instance()
	res, err := Execute(inst, figure2UnnestedSchedule())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() || res.Makespan() != 4 {
		t.Fatalf("unnested schedule should still finish in 4 steps, got %d", res.Makespan())
	}
	p := CheckProperties(res)
	if !p.NonWasting || !p.Progressive {
		t.Fatalf("Figure 2c schedule is non-wasting and progressive, got %v", p)
	}
	if p.Nested {
		t.Fatalf("Figure 2c schedule must be detected as NOT nested")
	}
}

func TestIsNonWastingDetectsWaste(t *testing.T) {
	inst := NewInstance([]float64{0.5, 0.5})
	s := NewSchedule(3, 1)
	s.Alloc[0][0] = 0.3 // leaves 0.7 unused while the active job is unfinished
	s.Alloc[1][0] = 0.2
	s.Alloc[2][0] = 0.5
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if IsNonWasting(res) {
		t.Fatalf("schedule wastes resource in step 1 while a job stays unfinished")
	}
}

func TestIsProgressiveDetectsTwoPartials(t *testing.T) {
	inst := NewInstance([]float64{0.8}, []float64{0.8})
	s := NewSchedule(2, 2)
	s.Alloc[0] = []float64{0.5, 0.5} // both jobs partially processed
	s.Alloc[1] = []float64{0.3, 0.3}
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if IsProgressive(res) {
		t.Fatalf("two partially processed jobs in step 1 violate progressiveness")
	}
}

func TestIsBalancedDetectsImbalance(t *testing.T) {
	// Processor 1 has 1 job, processor 2 has 2. Finishing processor 1's job
	// in step 1 while processor 2 (with more remaining jobs) does not finish
	// violates Definition 5.
	inst := NewInstance([]float64{0.5}, []float64{0.9, 0.9})
	s := NewSchedule(3, 2)
	s.Alloc[0] = []float64{0.5, 0.5}
	s.Alloc[1] = []float64{0, 1.0}
	s.Alloc[2] = []float64{0, 0.9}
	res, err := Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if IsBalanced(res) {
		t.Fatalf("schedule finishes the short processor first and must not be balanced")
	}

	// The balanced alternative finishes processor 2's first job in step 1.
	s2 := NewSchedule(3, 2)
	s2.Alloc[0] = []float64{0.1, 0.9}
	s2.Alloc[1] = []float64{0.4, 0.6}
	s2.Alloc[2] = []float64{0, 0.9}
	res2, err := Execute(inst, s2)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res2.Finished() {
		t.Fatalf("alternative schedule should finish")
	}
	if !IsBalanced(res2) {
		t.Fatalf("alternative schedule is balanced: the longer processor finishes whenever the shorter one does")
	}
}

func TestPropositionCheckersOnBalancedSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(3)
		inst := randomInstance(rng, m, 1+rng.Intn(5), 0.05, 1.0)
		sched := balancedGreedySchedule(inst)
		res, err := Execute(inst, sched)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if !res.Finished() {
			t.Fatalf("balanced greedy must finish all jobs")
		}
		if !IsBalanced(res) {
			t.Fatalf("balanced greedy schedule must satisfy Definition 5")
		}
		if err := CheckProposition1(res); err != nil {
			t.Fatalf("Proposition 1 violated: %v", err)
		}
		if err := CheckProposition2(res); err != nil {
			t.Fatalf("Proposition 2 violated: %v", err)
		}
	}
}

func TestPropertiesString(t *testing.T) {
	if got := (Properties{}).String(); got != "none" {
		t.Fatalf("empty property set renders %q, want none", got)
	}
	p := Properties{NonWasting: true, Nested: true}
	if got := p.String(); got != "non-wasting nested" {
		t.Fatalf("got %q", got)
	}
}

// refPropertiesString is the closure-based String that the precomputed
// table replaced, kept verbatim as its reference.
func refPropertiesString(p Properties) string {
	s := ""
	add := func(ok bool, name string) {
		if ok {
			if s != "" {
				s += " "
			}
			s += name
		}
	}
	add(p.NonWasting, "non-wasting")
	add(p.Progressive, "progressive")
	add(p.Nested, "nested")
	add(p.Balanced, "balanced")
	if s == "" {
		return "none"
	}
	return s
}

// TestPropertiesStringAllCombinations compares String with the reference
// on all 16 property sets, and checks that it does not allocate.
func TestPropertiesStringAllCombinations(t *testing.T) {
	for k := 0; k < 16; k++ {
		p := Properties{NonWasting: k&1 != 0, Progressive: k&2 != 0, Nested: k&4 != 0, Balanced: k&8 != 0}
		if got, want := p.String(), refPropertiesString(p); got != want {
			t.Fatalf("%+v renders %q, reference %q", p, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = p.String() }); allocs != 0 {
			t.Fatalf("%+v: String made %v allocations", p, allocs)
		}
	}
}

// randomInstance draws a unit-size instance without importing internal/gen
// (which would create an import cycle for this package's tests).
func randomInstance(rng *rand.Rand, m, jobs int, lo, hi float64) *Instance {
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, jobs)
		for j := range rows[i] {
			rows[i][j] = lo + rng.Float64()*(hi-lo)
		}
	}
	return NewInstance(rows...)
}

// balancedGreedySchedule is a minimal re-implementation of the GreedyBalance
// allocation rule used only to exercise the property checkers without
// importing the algorithm package (tests of internal/algo/greedybalance cover
// the real implementation).
func balancedGreedySchedule(inst *Instance) *Schedule {
	b := NewBuilder(inst)
	return b.BuildGreedy(func(b *Builder) []float64 {
		m := b.NumProcessors()
		shares := make([]float64, m)
		avail := 1.0
		for avail > 1e-12 {
			// Pick the active processor with the most remaining jobs (ties:
			// larger remaining work, then index) that still has unmet demand.
			best := -1
			for i := 0; i < m; i++ {
				if !b.Active(i) || shares[i] > 0 {
					continue
				}
				if best == -1 {
					best = i
					continue
				}
				if b.RemainingJobs(i) > b.RemainingJobs(best) ||
					(b.RemainingJobs(i) == b.RemainingJobs(best) && b.RemainingWork(i) > b.RemainingWork(best)) {
					best = i
				}
			}
			if best == -1 {
				break
			}
			give := b.DemandThisStep(best)
			if give > avail {
				give = avail
			}
			if give <= 0 {
				// Zero-demand active job (zero requirement): mark it served.
				give = 0
			}
			shares[best] = give
			avail -= give
			if give == 0 {
				// Avoid an infinite loop on zero-requirement jobs.
				break
			}
		}
		return shares
	})
}
