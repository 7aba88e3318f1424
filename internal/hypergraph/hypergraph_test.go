package hypergraph

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// figure1Schedule reproduces the schedule of Figure 1: jobs are prioritised
// in order of increasing remaining resource requirement ("trying to greedily
// finish as many jobs as possible").
func figure1Schedule(t *testing.T) (*core.Instance, *core.Schedule) {
	t.Helper()
	inst := gen.Figure1()
	sched, err := greedybalance.NewUnbalanced(greedybalance.SmallerRemaining).Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return inst, sched
}

func TestFigure1GraphStructure(t *testing.T) {
	inst, sched := figure1Schedule(t)
	g, err := BuildFromSchedule(inst, sched)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(g.Nodes) != inst.TotalJobs() {
		t.Fatalf("graph has %d nodes, want %d", len(g.Nodes), inst.TotalJobs())
	}
	// Figure 1 shows a schedule with 6 edges (makespan 6) falling into 3
	// connected components.
	if g.Makespan() != 6 {
		t.Fatalf("makespan = %d, want 6 (Figure 1 schedule has edges e1..e6)", g.Makespan())
	}
	if len(g.Edges) != 6 {
		t.Fatalf("graph has %d edges, want 6", len(g.Edges))
	}
	if g.NumComponents() != 3 {
		t.Fatalf("graph has %d components, want 3 (C1, C2, C3 of Figure 1b)", g.NumComponents())
	}
	if err := g.CheckObservation2(); err != nil {
		t.Fatalf("Observation 2: %v", err)
	}
	// Components are ordered left to right and their classes are
	// non-increasing (each later component can use at most as much
	// parallelism).
	for k := 1; k < g.NumComponents(); k++ {
		if g.Components[k].Class > g.Components[k-1].Class {
			t.Fatalf("component classes must be non-increasing, got %d then %d",
				g.Components[k-1].Class, g.Components[k].Class)
		}
	}
}

func TestBuildRejectsUnfinishedSchedule(t *testing.T) {
	inst := gen.Figure1()
	short := core.NewSchedule(1, 3)
	short.Alloc[0] = []float64{0.2, 0.5, 0.3}
	if _, err := BuildFromSchedule(inst, short); err == nil {
		t.Fatalf("expected error for unfinished schedule")
	}
}

func TestLemmaBoundsOnBalancedSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(4)
		inst := gen.RandomUneven(rng, m, 1, 6, 0.05, 1.0)
		sched, err := greedybalance.New().Schedule(context.Background(), inst)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		res, err := core.Execute(inst, sched)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		g, err := Build(res)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if err := g.CheckObservation2(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := g.CheckLemma2(); err != nil {
			t.Fatalf("trial %d: %v\n%v", trial, err, inst)
		}
		// Lemma 5 and Lemma 6 give lower bounds on OPT, so they must not
		// exceed the makespan of the (feasible) greedy schedule itself.
		if lb := g.Lemma5Bound(); lb > res.Makespan() {
			t.Fatalf("trial %d: Lemma 5 bound %d exceeds an achievable makespan %d", trial, lb, res.Makespan())
		}
		if lb := g.Lemma6Bound(); lb > float64(res.Makespan())+1e-9 {
			t.Fatalf("trial %d: Lemma 6 bound %v exceeds an achievable makespan %d", trial, lb, res.Makespan())
		}
		// Lemma 6 additionally lower-bounds n = max_i n_i.
		if lb := g.Lemma6Bound(); lb > float64(inst.MaxJobs())+1e-9 {
			t.Fatalf("trial %d: Lemma 6 bound %v exceeds n=%d", trial, lb, inst.MaxJobs())
		}
	}
}

func TestComponentAccessors(t *testing.T) {
	inst, sched := figure1Schedule(t)
	g, err := BuildFromSchedule(inst, sched)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	first := g.Components[0]
	if first.EdgeCount() < 1 || first.Size() < first.Class {
		t.Fatalf("component invariants violated: %+v", first)
	}
	c := g.ComponentOf(core.JobID{Proc: 0, Pos: 0})
	if c == nil || c.Index != 0 {
		t.Fatalf("job (1,1) must belong to the first component, got %+v", c)
	}
	if g.ComponentOf(core.JobID{Proc: 9, Pos: 9}) != nil {
		t.Fatalf("unknown job must map to no component")
	}
	if g.AverageEdges() <= 0 {
		t.Fatalf("average edges must be positive")
	}
}

func TestStringAndDOTRendering(t *testing.T) {
	inst, sched := figure1Schedule(t)
	g, err := BuildFromSchedule(inst, sched)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	s := g.String()
	if !strings.Contains(s, "components") {
		t.Fatalf("String output missing summary: %q", s)
	}
	dot := g.DOT()
	if !strings.HasPrefix(dot, "graph HS {") || !strings.Contains(dot, "e1") {
		t.Fatalf("DOT output malformed:\n%s", dot)
	}
}

func TestSingleProcessorGraph(t *testing.T) {
	inst := core.NewInstance([]float64{0.4, 0.8, 0.2})
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	g, err := BuildFromSchedule(inst, sched)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Every job is its own edge and its own component.
	if g.NumComponents() != 3 {
		t.Fatalf("expected 3 singleton components, got %d", g.NumComponents())
	}
	for _, c := range g.Components {
		if c.Class != 1 || c.Size() != 1 || c.EdgeCount() != 1 {
			t.Fatalf("singleton component malformed: %+v", c)
		}
	}
}
