package manycore

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"crsharing/internal/core"
)

func ioPhase(bw, vol float64) Phase { return Phase{Kind: PhaseIO, Bandwidth: bw, Volume: vol} }
func computePhase(bw, vol float64) Phase {
	return Phase{Kind: PhaseCompute, Bandwidth: bw, Volume: vol}
}

func singleTaskWorkload(cores int, tasks ...*Task) *Workload {
	w := NewWorkload(cores)
	for i, t := range tasks {
		w.Assign(i, t)
	}
	return w
}

func TestPhaseAndTaskValidation(t *testing.T) {
	if err := ioPhase(0.5, 2).Validate(); err != nil {
		t.Fatalf("valid phase rejected: %v", err)
	}
	if err := ioPhase(1.5, 2).Validate(); err == nil {
		t.Fatalf("bandwidth > 1 must be rejected")
	}
	if err := ioPhase(0.5, 0).Validate(); err == nil {
		t.Fatalf("zero volume must be rejected")
	}
	if err := NewTask("t").Validate(); err == nil {
		t.Fatalf("task without phases must be rejected")
	}
	task := NewTask("t", ioPhase(0.5, 2), computePhase(0.1, 1))
	if err := task.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	if !almostEq(task.TotalVolume(), 3) || !almostEq(task.TotalWork(), 1.1) {
		t.Fatalf("task totals wrong: volume=%v work=%v", task.TotalVolume(), task.TotalWork())
	}
	if PhaseIO.String() != "io" || PhaseCompute.String() != "compute" {
		t.Fatalf("phase kind rendering broken")
	}
}

func TestWorkloadAccounting(t *testing.T) {
	w := NewWorkload(2)
	w.AssignRoundRobin([]*Task{
		NewTask("a", ioPhase(0.5, 2)),
		NewTask("b", ioPhase(0.25, 4)),
		NewTask("c", ioPhase(1, 1)),
	})
	if w.NumTasks() != 3 || w.Cores() != 2 {
		t.Fatalf("workload shape wrong")
	}
	if len(w.Queues[0]) != 2 || len(w.Queues[1]) != 1 {
		t.Fatalf("round robin placement wrong: %d/%d", len(w.Queues[0]), len(w.Queues[1]))
	}
	if !almostEq(w.TotalWork(), 3) {
		t.Fatalf("total work = %v, want 3", w.TotalWork())
	}
	if !almostEq(w.TotalVolume(), 7) {
		t.Fatalf("total volume = %v, want 7", w.TotalVolume())
	}
	if !almostEq(w.MaxQueueVolume(), 4) {
		t.Fatalf("max queue volume = %v, want 4 (core 1 holds task b alone)", w.MaxQueueVolume())
	}
}

func TestEngineSingleCoreFullBandwidth(t *testing.T) {
	// One core, one task with 3 volume units of I/O at bandwidth 0.5: with
	// the whole bus available it runs at full speed and finishes in 3 ticks.
	w := singleTaskWorkload(1, NewTask("only", ioPhase(0.5, 3)))
	for _, p := range Policies() {
		m, err := Run(w, p, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if m.Ticks != 3 {
			t.Fatalf("%s: ticks = %d, want 3", p.Name(), m.Ticks)
		}
	}
}

func TestEngineEqualShareStarvesIOHeavyCore(t *testing.T) {
	// Three cores: one I/O-bound task needing 100% of the bus and two compute
	// tasks needing none. EqualShare gives the I/O task only a third of the
	// bus, so it crawls; demand-aware policies give it everything.
	w := singleTaskWorkload(3,
		NewTask("io", ioPhase(1.0, 4)),
		NewTask("compute-1", computePhase(0, 4)),
		NewTask("compute-2", computePhase(0, 4)),
	)
	equal, err := Run(w, EqualShare{}, nil)
	if err != nil {
		t.Fatalf("equal: %v", err)
	}
	greedy, err := Run(w, GreedyBalance{}, nil)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	if equal.Ticks <= greedy.Ticks {
		t.Fatalf("EqualShare (%d ticks) should be slower than GreedyBalance (%d ticks)", equal.Ticks, greedy.Ticks)
	}
	if greedy.Ticks != 4 {
		t.Fatalf("demand-aware policy should finish in 4 ticks, got %d", greedy.Ticks)
	}
	if equal.Ticks < 7 {
		t.Fatalf("EqualShare should need roughly twice as long, got %d ticks", equal.Ticks)
	}
	if equal.StallTicks == 0 {
		t.Fatalf("EqualShare run should record stalled core-ticks")
	}
}

func TestEngineMetricsAccounting(t *testing.T) {
	w := singleTaskWorkload(2,
		NewTask("a", ioPhase(0.6, 2)),
		NewTask("b", ioPhase(0.4, 2)),
	)
	m, err := Run(w, WaterFill{}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Ticks != 2 {
		t.Fatalf("both tasks fit side by side: want 2 ticks, got %d", m.Ticks)
	}
	if !almostEq(m.BusBusy, 2.0) {
		t.Fatalf("bus busy = %v, want 2.0 (0.6+0.4 per tick for 2 ticks)", m.BusBusy)
	}
	if m.Utilization() < 0.99 {
		t.Fatalf("utilization = %v, want ~1", m.Utilization())
	}
	if m.TaskFinish["a"] != 2 || m.TaskFinish["b"] != 2 {
		t.Fatalf("task finish ticks wrong: %v", m.TaskFinish)
	}
	if m.CoreFinish[0] != 2 || m.CoreFinish[1] != 2 {
		t.Fatalf("core finish ticks wrong: %v", m.CoreFinish)
	}
	if m.RatioToLowerBound() < 1-1e-9 {
		t.Fatalf("ratio to lower bound below 1: %v", m.RatioToLowerBound())
	}
	if m.String() == "" {
		t.Fatalf("metrics must render")
	}
}

func TestEngineLowerBoundNeverViolated(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		cores := 2 + rng.Intn(6)
		w := NewWorkload(cores)
		var tasks []*Task
		for i := 0; i < cores+rng.Intn(cores); i++ {
			var phases []Phase
			for p := 0; p < 1+rng.Intn(4); p++ {
				phases = append(phases, Phase{
					Kind:      PhaseKind(rng.Intn(2)),
					Bandwidth: 0.05 + rng.Float64()*0.9,
					Volume:    0.5 + rng.Float64()*3,
				})
			}
			tasks = append(tasks, NewTask("t", phases...))
		}
		w.AssignRoundRobin(tasks)
		for _, p := range Policies() {
			m, err := Run(w, p, nil)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, p.Name(), err)
			}
			if float64(m.Ticks) < m.LowerBound-1e-9 {
				t.Fatalf("trial %d %s: ticks %d below lower bound %v", trial, p.Name(), m.Ticks, m.LowerBound)
			}
			if m.BusBusy > float64(m.Ticks)+1e-6 {
				t.Fatalf("trial %d %s: bus busy %v exceeds capacity", trial, p.Name(), m.BusBusy)
			}
		}
	}
}

func TestEngineGreedyBalanceNeverWorseTwiceLowerBound(t *testing.T) {
	// The simulator analogue of Theorem 7: the greedy-balance policy stays
	// within a small constant factor of the bandwidth/critical-path lower
	// bound on random unit-volume workloads.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		cores := 2 + rng.Intn(5)
		w := NewWorkload(cores)
		for c := 0; c < cores; c++ {
			var phases []Phase
			for p := 0; p < 1+rng.Intn(6); p++ {
				phases = append(phases, ioPhase(0.05+rng.Float64()*0.95, 1))
			}
			w.Assign(c, NewTask("t", phases...))
		}
		m, err := Run(w, GreedyBalance{}, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		limit := 2*m.LowerBound + float64(cores) + 1
		if float64(m.Ticks) > limit {
			t.Fatalf("trial %d: greedy-balance %d ticks exceeds 2·LB+m = %v", trial, m.Ticks, limit)
		}
	}
}

func TestRunRejectsInvalidWorkloads(t *testing.T) {
	if _, err := Run(NewWorkload(0), EqualShare{}, nil); err == nil {
		t.Fatalf("a workload covering no cores must be rejected")
	}
	w := singleTaskWorkload(2, NewTask("a", ioPhase(0.5, 1)), NewTask("b", ioPhase(1.5, 1)))
	if _, err := Run(w, EqualShare{}, nil); err == nil {
		t.Fatalf("a phase with bandwidth above the capacity must be rejected")
	}
}

// starve serves no core at all.
type starve struct{}

func (starve) Name() string                          { return "starve" }
func (starve) Allocate(_ *core.Builder, _ []float64) {}

func TestRunReportsStarvation(t *testing.T) {
	// Core 1's compute phase needs no bandwidth and finishes on its own;
	// core 0's I/O phase needs bandwidth the policy never grants, so the
	// build ends at the builder's safety cap with work left.
	w := singleTaskWorkload(2, NewTask("io", ioPhase(0.5, 3)), NewTask("compute", computePhase(0, 2)))
	_, err := Run(w, starve{}, nil)
	if err == nil || !strings.Contains(err.Error(), `"starve"`) || !strings.Contains(err.Error(), "unfinished") {
		t.Fatalf("starving policy: err = %v, want an unfinished-work error naming the policy", err)
	}
}

func TestRunMapsFinishesThroughQueues(t *testing.T) {
	// Core 0 runs two tasks back to back, core 1 one; with the whole bus
	// each phase runs at full speed, so finish ticks are volume sums.
	w := NewWorkload(2)
	w.Assign(0, NewTask("a", ioPhase(0.5, 2), computePhase(0, 1)))
	w.Assign(0, NewTask("b", ioPhase(0.5, 1)))
	w.Assign(1, NewTask("c", computePhase(0.1, 2)))
	rec := NewRecorder(0)
	m, err := Run(w, WaterFill{}, rec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Ticks != 4 || m.TaskFinish["a"] != 3 || m.TaskFinish["b"] != 4 || m.TaskFinish["c"] != 2 {
		t.Fatalf("ticks %d, task finish %v; want 4 and a:3 b:4 c:2", m.Ticks, m.TaskFinish)
	}
	if m.CoreFinish[0] != 4 || m.CoreFinish[1] != 2 {
		t.Fatalf("core finish = %v, want [4 2]", m.CoreFinish)
	}
	if m.IOPhaseTicks != 3 || m.ComputePhaseTicks != 3 {
		t.Fatalf("phase ticks io %d compute %d, want 3 and 3", m.IOPhaseTicks, m.ComputePhaseTicks)
	}
	// Tick 3 (index 3) runs task b's first phase on core 0; core 1 is idle.
	last := rec.Ticks[3]
	if last.Task[0] != "b" || last.Phase[0] != 0 || last.Phase[1] != -1 || last.Task[1] != "" {
		t.Fatalf("last tick recorded tasks %q phases %v", last.Task, last.Phase)
	}
	if rec.Ticks[2].Task[0] != "a" || rec.Ticks[2].Phase[0] != 1 {
		t.Fatalf("tick 2 recorded task %q phase %d, want a's phase 1", rec.Ticks[2].Task[0], rec.Ticks[2].Phase[0])
	}
}

func TestCompareRunsIdenticalCopies(t *testing.T) {
	w := singleTaskWorkload(2,
		NewTask("io", ioPhase(0.9, 3)),
		NewTask("bg", computePhase(0.05, 3)),
	)
	results, err := Compare(w, Policies()...)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if len(results) != len(Policies()) {
		t.Fatalf("expected %d results, got %d", len(Policies()), len(results))
	}
	for _, m := range results {
		if m.Ticks < 3 {
			t.Fatalf("%s finished in %d ticks, impossible (< critical path)", m.Policy, m.Ticks)
		}
	}
	// The original workload must be untouched by the runs.
	if w.Queues[0][0].Phases[0].Volume != 3 {
		t.Fatalf("Compare must not mutate the input workload")
	}
}

// randomBuilder returns a builder for a random instance of up to eight
// processors, advanced by a random number of steps with random feasible
// shares, so that some processors are idle, some mid-job and some untouched.
func randomBuilder(rng *rand.Rand) *core.Builder {
	n := 1 + rng.Intn(8)
	procs := make([][]core.Job, n)
	for i := range procs {
		if rng.Float64() < 0.15 {
			continue
		}
		for j := 0; j < 1+rng.Intn(4); j++ {
			req := rng.Float64()
			if rng.Float64() < 0.1 {
				req = 0
			}
			procs[i] = append(procs[i], core.Job{Req: req, Size: 0.5 + rng.Float64()*3})
		}
	}
	b := core.NewBuilder(core.NewSizedInstance(procs...))
	shares := make([]float64, n)
	for k := rng.Intn(12); k > 0 && !b.Done(); k-- {
		var total float64
		for i := range shares {
			shares[i] = rng.Float64()
			total += shares[i]
		}
		for i := range shares {
			shares[i] /= total
		}
		b.AppendStep(shares)
	}
	return b
}

func TestPoliciesNeverOvercommitProperty(t *testing.T) {
	// Property: on arbitrary build states, every built-in policy allocates
	// non-negative shares totalling at most the capacity, and the
	// demand-aware ones never grant a core more than its demand (so nothing
	// to idle cores).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBuilder(rng)
		for _, p := range Policies() {
			shares := make([]float64, b.NumProcessors())
			p.Allocate(b, shares)
			demandAware := p.Name() != "equal-share" && p.Name() != "proportional-share"
			var total float64
			for i, x := range shares {
				if x < -1e-12 {
					return false
				}
				if demandAware && x > b.DemandThisStep(i)+1e-9 {
					return false
				}
				if !b.Active(i) && x > 1e-12 && demandAware {
					return false
				}
				total += x
			}
			if total > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("property violated: %v", err)
	}
}

func almostEq(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}
