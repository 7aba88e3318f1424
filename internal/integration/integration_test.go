package integration

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"crsharing/internal/algo/branchbound"
	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/chunked"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/optresm"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/hypergraph"
	"crsharing/internal/manycore"
	"crsharing/internal/partition"
	"crsharing/internal/render"
	"crsharing/internal/solver"
	"crsharing/internal/trace"
)

// makespan evaluates k on inst through solver.Evaluate.
func makespan(k solver.Kernel, inst *core.Instance) (int, error) {
	ev, err := solver.Evaluate(context.Background(), solver.Adapt(k), inst)
	if err != nil {
		return 0, err
	}
	return ev.Makespan, nil
}

// TestExactSolversAgree cross-checks all four independently implemented exact
// solvers (m=2 DP, its PQ variant, configuration enumeration, branch and
// bound) and the exhaustive oracle on a batch of random instances.
func TestExactSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	for trial := 0; trial < 30; trial++ {
		inst := gen.RandomUneven(rng, 2, 1, 5, 0.05, 1.0)
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Fatalf("bruteforce: %v", err)
		}
		check := func(name string, got int, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want {
				t.Fatalf("trial %d: %s returned %d, oracle %d\n%v", trial, name, got, want, inst)
			}
		}
		m1, err := optres2.New().Makespan(inst)
		check("optres2", m1, err)
		m2, err := optres2.NewPQ().Makespan(inst)
		check("optres2-pq", m2, err)
		m3, err := makespan(optresm.New(), inst)
		check("optresm", m3, err)
		m4, err := makespan(branchbound.New(), inst)
		check("branchbound", m4, err)
		m5, err := (&chunked.Scheduler{Window: inst.MaxJobs()}).Schedule(context.Background(), inst)
		if err != nil {
			t.Fatalf("chunked: %v", err)
		}
		check("chunked-full", core.MustMakespan(inst, m5), nil)
	}
}

// TestApproximationHierarchy verifies the proven chain
// OPT ≤ GreedyBalance ≤ (2−1/m)·OPT ≤ 2·OPT and RoundRobin ≤ 2·OPT on
// three-processor instances with the exact algorithm as reference.
func TestApproximationHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(4102))
	for trial := 0; trial < 20; trial++ {
		inst := gen.Random(rng, 3, 3, 0.05, 1.0)
		opt, err := makespan(branchbound.New(), inst)
		if err != nil {
			t.Fatalf("branchbound: %v", err)
		}
		gb, err := solver.Evaluate(context.Background(), solver.Adapt(greedybalance.New()), inst)
		if err != nil {
			t.Fatalf("greedybalance: %v", err)
		}
		rr, err := solver.Evaluate(context.Background(), solver.Adapt(roundrobin.New()), inst)
		if err != nil {
			t.Fatalf("roundrobin: %v", err)
		}
		if gb.Makespan < opt || rr.Makespan < opt {
			t.Fatalf("trial %d: an approximation beat the optimum (%d, %d vs %d)", trial, gb.Makespan, rr.Makespan, opt)
		}
		if float64(gb.Makespan) > (2-1.0/3.0)*float64(opt)+1e-9 {
			t.Fatalf("trial %d: GreedyBalance outside its bound", trial)
		}
		if rr.Makespan > 2*opt {
			t.Fatalf("trial %d: RoundRobin outside its bound", trial)
		}
	}
}

// TestTraceToModelToScheduleFlow walks the full pipeline: synthetic trace →
// simulator workload → CRSharing instance → offline schedule → hypergraph →
// rendering, checking the invariants that tie the layers together.
func TestTraceToModelToScheduleFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tasks := trace.UnitPhases(rng, 6, 5, 0.1, 0.95)
	w := manycore.NewWorkload(6)
	for i, task := range tasks {
		w.Assign(i, task)
	}

	// Online: simulate with the greedy-balance policy.
	online, err := manycore.Run(w, manycore.GreedyBalance{}, nil)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}

	// Offline: convert to the model and schedule with GreedyBalance.
	inst, err := w.Instance()
	if err != nil {
		t.Fatalf("Instance: %v", err)
	}
	offline, err := solver.Evaluate(context.Background(), solver.Adapt(greedybalance.New()), inst)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}

	// The simulator steps the same instance through the same rule, so the
	// online run takes exactly the offline makespan, which in turn respects
	// the model's lower bound.
	if online.Ticks != offline.Makespan {
		t.Fatalf("online greedy-balance took %d ticks, offline makespan %d", online.Ticks, offline.Makespan)
	}
	if lb := core.LowerBounds(inst).Best(); offline.Makespan < lb {
		t.Fatalf("makespan %d beat the lower bound %d", offline.Makespan, lb)
	}

	res, err := core.Execute(inst, offline.Schedule)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	g, err := hypergraph.Build(res)
	if err != nil {
		t.Fatalf("hypergraph: %v", err)
	}
	if g.Lemma5Bound() > offline.Makespan {
		t.Fatalf("Lemma 5 bound %d exceeds the schedule's own makespan %d", g.Lemma5Bound(), offline.Makespan)
	}
	if out := render.Gantt(res, render.GanttOptions{}); out == "" {
		t.Fatalf("rendering produced nothing")
	}
}

// TestTheorem8BothSides verifies both halves of the Theorem 8 construction on
// sizes where the exact optimum is computable: GreedyBalance needs exactly
// 2m−1 steps per block, while the optimum needs exactly m·blocks + m − 1
// steps (m per block plus the lead-in of the first block), so the ratio
// approaches 2 − 1/m as the number of blocks grows.
func TestTheorem8BothSides(t *testing.T) {
	cases := []struct{ m, blocks int }{{2, 2}, {2, 3}, {2, 4}, {3, 1}, {3, 2}}
	for _, c := range cases {
		eps := 1.0 / float64(20*c.m*(c.m+1))
		inst := gen.GreedyWorstCase(c.m, c.blocks, eps)
		gbSched, err := greedybalance.New().Schedule(context.Background(), inst)
		if err != nil {
			t.Fatalf("m=%d blocks=%d: %v", c.m, c.blocks, err)
		}
		gb := core.MustMakespan(inst, gbSched)
		if want := c.blocks * (2*c.m - 1); gb != want {
			t.Fatalf("m=%d blocks=%d: GreedyBalance %d, want %d (2m-1 per block)", c.m, c.blocks, gb, want)
		}
		opt, err := makespan(branchbound.New(), inst)
		if err != nil {
			t.Fatalf("m=%d blocks=%d: branchbound: %v", c.m, c.blocks, err)
		}
		if want := c.m*c.blocks + c.m - 1; opt != want {
			t.Fatalf("m=%d blocks=%d: optimum %d, want %d (m per block plus the first block's lead-in)", c.m, c.blocks, opt, want)
		}
		ratio := float64(gb) / float64(opt)
		bound := 2 - 1.0/float64(c.m)
		if ratio > bound+1e-9 {
			t.Fatalf("m=%d blocks=%d: ratio %.3f exceeds the proven bound %.3f", c.m, c.blocks, ratio, bound)
		}
	}
}

// TestJSONInterchange exercises the same JSON round trip the CLI tools use:
// instance to disk, schedule to disk, read back, re-validate.
func TestJSONInterchange(t *testing.T) {
	dir := t.TempDir()
	inst := gen.Figure3(12)
	sched, err := optres2.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}

	instPath := filepath.Join(dir, "instance.json")
	schedPath := filepath.Join(dir, "schedule.json")
	writeJSON(t, instPath, inst)
	writeJSON(t, schedPath, sched)

	var instBack core.Instance
	var schedBack core.Schedule
	readJSON(t, instPath, &instBack)
	readJSON(t, schedPath, &schedBack)

	if !inst.Equal(&instBack) {
		t.Fatalf("instance changed through JSON round trip")
	}
	res, err := core.Execute(&instBack, &schedBack)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !res.Finished() || res.Makespan() != 13 {
		t.Fatalf("round-tripped schedule no longer optimal: finished=%v makespan=%d", res.Finished(), res.Makespan())
	}
}

// TestPartitionReductionEndToEnd draws random Partition instances, runs the
// reduction, solves the gadget exactly and checks the 4-vs-5 separation that
// Theorem 4 proves.
func TestPartitionReductionEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1407))
	for trial := 0; trial < 6; trial++ {
		var p *partition.Instance
		if trial%2 == 0 {
			p = partition.RandomYes(rng, 3+rng.Intn(2), 5)
		} else {
			p = partition.RandomNo(rng, 3+rng.Intn(2), 5)
		}
		yes, err := p.Decide()
		if err != nil {
			t.Fatalf("Decide: %v", err)
		}
		inst, err := gen.PartitionGadget(p.Elems, 0.3/float64(len(p.Elems)))
		if err != nil {
			t.Fatalf("PartitionGadget(%v): %v", p.Elems, err)
		}
		opt, err := makespan(branchbound.New(), inst)
		if err != nil {
			t.Fatalf("branchbound: %v", err)
		}
		want := 5
		if yes {
			want = 4
		}
		if opt != want {
			t.Fatalf("trial %d: elems %v (YES=%v) gadget optimum %d, want %d", trial, p.Elems, yes, opt, want)
		}
	}
}

func writeJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func readJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
}
