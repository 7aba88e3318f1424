package trace

import (
	"math/rand"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/manycore"
)

func TestScientificTraceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultScientificConfig(8)
	tasks, err := Scientific(rng, cfg)
	if err != nil {
		t.Fatalf("Scientific: %v", err)
	}
	if len(tasks) != 8 {
		t.Fatalf("expected 8 tasks, got %d", len(tasks))
	}
	for _, task := range tasks {
		if err := task.Validate(); err != nil {
			t.Fatalf("invalid task: %v", err)
		}
		if len(task.Phases) != cfg.PhasesPerTask {
			t.Fatalf("task has %d phases, want %d", len(task.Phases), cfg.PhasesPerTask)
		}
		for p, phase := range task.Phases {
			if p%2 == 0 {
				if phase.Kind != manycore.PhaseIO || phase.Bandwidth < cfg.IOBandwidthLo {
					t.Fatalf("even phases must be I/O-heavy, got %+v", phase)
				}
			} else {
				if phase.Kind != manycore.PhaseCompute || phase.Bandwidth > cfg.ComputeBandwidthHi {
					t.Fatalf("odd phases must be light compute, got %+v", phase)
				}
			}
		}
	}
}

func TestScientificConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := DefaultScientificConfig(4)
	bad.IOBandwidthHi = 1.5
	if _, err := Scientific(rng, bad); err == nil {
		t.Fatalf("invalid config must be rejected")
	}
	bad = DefaultScientificConfig(0)
	if _, err := Scientific(rng, bad); err == nil {
		t.Fatalf("zero tasks must be rejected")
	}
	bad = DefaultScientificConfig(4)
	bad.VolumeLo = 0
	if _, err := Scientific(rng, bad); err == nil {
		t.Fatalf("zero volume must be rejected")
	}
}

func TestVMTraceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultVMConfig(16)
	tasks, err := VMs(rng, cfg)
	if err != nil {
		t.Fatalf("VMs: %v", err)
	}
	if len(tasks) != 16 {
		t.Fatalf("expected 16 VMs, got %d", len(tasks))
	}
	bursts, background := 0, 0
	for _, task := range tasks {
		if err := task.Validate(); err != nil {
			t.Fatalf("invalid task: %v", err)
		}
		for _, phase := range task.Phases {
			if phase.Kind == manycore.PhaseIO {
				bursts++
			} else {
				background++
			}
		}
	}
	if bursts == 0 || background == 0 {
		t.Fatalf("VM trace should contain both bursts (%d) and background phases (%d)", bursts, background)
	}
}

func TestVMConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bad := DefaultVMConfig(4)
	bad.BurstProbability = 1.5
	if _, err := VMs(rng, bad); err == nil {
		t.Fatalf("invalid burst probability must be rejected")
	}
	bad = DefaultVMConfig(4)
	bad.BurstLo = 0.9
	bad.BurstHi = 0.5
	if _, err := VMs(rng, bad); err == nil {
		t.Fatalf("inverted burst range must be rejected")
	}
}

func TestUnitPhasesMatchUnitSizeModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tasks := UnitPhases(rng, 4, 5, 0.1, 0.9)
	w := manycore.NewWorkload(4)
	for i, task := range tasks {
		w.Assign(i, task)
	}
	inst, err := w.Instance()
	if err != nil {
		t.Fatalf("Instance: %v", err)
	}
	if !inst.IsUnitSize() {
		t.Fatalf("unit-phase workload must convert to a unit-size instance")
	}
	if inst.NumProcessors() != 4 || inst.TotalJobs() != 20 {
		t.Fatalf("unexpected instance shape: %d procs, %d jobs", inst.NumProcessors(), inst.TotalJobs())
	}
}

func TestRoundTripInstanceWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	orig := gen.Random(rng, 3, 4, 0.1, 0.9)
	w, err := FromInstance(orig)
	if err != nil {
		t.Fatalf("FromInstance: %v", err)
	}
	back, err := w.Instance()
	if err != nil {
		t.Fatalf("Instance: %v", err)
	}
	if !orig.Equal(back) {
		t.Fatalf("round trip changed the instance:\n%v\n%v", orig, back)
	}
}

func TestFromInstanceSkipsEmptyProcessors(t *testing.T) {
	inst := core.NewInstance([]float64{0.5}, nil)
	w, err := FromInstance(inst)
	if err != nil {
		t.Fatalf("FromInstance: %v", err)
	}
	if len(w.Queues[0]) != 1 || len(w.Queues[1]) != 0 {
		t.Fatalf("unexpected queues: %d/%d", len(w.Queues[0]), len(w.Queues[1]))
	}
}

func TestConvertedWorkloadSimulatesConsistently(t *testing.T) {
	// Running the simulator's greedy-balance policy on a converted unit-size
	// workload must finish everything and respect the model's lower bounds.
	rng := rand.New(rand.NewSource(5))
	inst := gen.Random(rng, 4, 4, 0.1, 1.0)
	w, err := FromInstance(inst)
	if err != nil {
		t.Fatalf("FromInstance: %v", err)
	}
	metrics, err := manycore.Run(w, manycore.GreedyBalance{}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	lb := core.LowerBounds(inst)
	if metrics.Ticks < lb.Best() {
		t.Fatalf("simulated makespan %d below the model lower bound %d", metrics.Ticks, lb.Best())
	}
}

func TestTraceDeterminism(t *testing.T) {
	a, err := Scientific(rand.New(rand.NewSource(9)), DefaultScientificConfig(5))
	if err != nil {
		t.Fatalf("Scientific: %v", err)
	}
	b, err := Scientific(rand.New(rand.NewSource(9)), DefaultScientificConfig(5))
	if err != nil {
		t.Fatalf("Scientific: %v", err)
	}
	for i := range a {
		if len(a[i].Phases) != len(b[i].Phases) {
			t.Fatalf("same seed must reproduce the same trace")
		}
		for p := range a[i].Phases {
			if a[i].Phases[p] != b[i].Phases[p] {
				t.Fatalf("same seed must reproduce the same phases")
			}
		}
	}
}
