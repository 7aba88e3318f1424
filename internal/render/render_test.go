package render

import (
	"context"
	"strings"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

func executed(t *testing.T, inst *core.Instance) *core.Result {
	t.Helper()
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

func TestGanttShowsJobsAndUtilisation(t *testing.T) {
	inst := gen.Figure1()
	res := executed(t, inst)
	out := Gantt(res, GanttOptions{})
	if !strings.Contains(out, "p1") || !strings.Contains(out, "use %") {
		t.Fatalf("Gantt output malformed:\n%s", out)
	}
	// Every processor row must appear.
	for _, row := range []string{"p1", "p2", "p3"} {
		if !strings.Contains(out, row) {
			t.Fatalf("missing row %s:\n%s", row, out)
		}
	}
	// Idle processors render as --: processor 3 has only 3 jobs and the
	// schedule is longer than 3 steps, so at least one cell must be idle.
	if !strings.Contains(out, "--") {
		t.Fatalf("expected at least one idle cell:\n%s", out)
	}

	withShares := Gantt(res, GanttOptions{ShowShares: true})
	if withShares == out {
		t.Fatalf("share rendering should differ from job rendering")
	}
}

func TestGanttTruncation(t *testing.T) {
	inst := gen.Figure3(30)
	res := executed(t, inst)
	out := Gantt(res, GanttOptions{MaxSteps: 5})
	if !strings.Contains(out, "truncated after 5") {
		t.Fatalf("expected truncation notice:\n%s", out)
	}
}

func TestUtilisationFlagsWastefulSteps(t *testing.T) {
	inst := core.NewInstance([]float64{0.5, 0.5})
	s := core.NewSchedule(3, 1)
	s.Alloc[0][0] = 0.3 // wasteful: job unfinished, resource unused
	s.Alloc[1][0] = 0.2
	s.Alloc[2][0] = 0.5
	res, err := core.Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	out := Utilisation(res)
	if !strings.Contains(out, "wasteful") {
		t.Fatalf("expected a wasteful-step marker:\n%s", out)
	}
}

func TestJobTableListsAllJobs(t *testing.T) {
	inst := gen.Figure2()
	res := executed(t, inst)
	out := JobTable(res)
	for _, id := range []string{"(1,1)", "(1,4)", "(2,1)", "(3,1)"} {
		if !strings.Contains(out, id) {
			t.Fatalf("missing job %s:\n%s", id, out)
		}
	}
}

func TestJobTableUnfinishedJobsRenderDashes(t *testing.T) {
	inst := core.NewInstance([]float64{0.5, 0.5})
	s := core.NewSchedule(1, 1)
	s.Alloc[0][0] = 0.5
	res, err := core.Execute(inst, s)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	out := JobTable(res)
	if !strings.Contains(out, "-") {
		t.Fatalf("unfinished job should render dashes:\n%s", out)
	}
}

func TestCompare(t *testing.T) {
	inst := gen.Figure3(12)
	gb, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	rr, err := roundrobin.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	out, err := Compare(inst, map[string]*core.Schedule{
		"greedy-balance": gb,
		"round-robin":    rr,
	})
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	if !strings.Contains(out, "greedy-balance") || !strings.Contains(out, "round-robin") {
		t.Fatalf("comparison missing algorithms:\n%s", out)
	}
	// greedy-balance beats round-robin on the Figure 3 family, so it must be
	// listed first.
	if strings.Index(out, "greedy-balance") > strings.Index(out, "round-robin") {
		t.Fatalf("rows must be sorted by makespan:\n%s", out)
	}
}

func TestCompareRejectsUnfinished(t *testing.T) {
	inst := gen.Figure2()
	if _, err := Compare(inst, map[string]*core.Schedule{"empty": {}}); err == nil {
		t.Fatalf("expected error for unfinished schedule")
	}
}

func TestCompareRejectsInfeasible(t *testing.T) {
	inst := core.NewInstance([]float64{0.5}, []float64{0.5})
	bad := core.NewSchedule(1, 2)
	bad.Alloc[0] = []float64{0.9, 0.9}
	if _, err := Compare(inst, map[string]*core.Schedule{"bad": bad}); err == nil {
		t.Fatalf("expected error for infeasible schedule")
	}
}
