package harness

import (
	"context"
	"strings"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
)

func solveWithGreedy(t *testing.T, inst *core.Instance) *core.Schedule {
	t.Helper()
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestOracleAcceptsValidSchedule(t *testing.T) {
	o := NewOracle()
	inst := core.NewInstance([]float64{0.3, 0.7}, []float64{0.5, 0.5})
	sched := solveWithGreedy(t, inst)
	res, err := core.Execute(inst, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.CheckSchedule("ok", inst, sched, res.Makespan(), res.Wasted()); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if o.Validated() != 1 || len(o.Violations()) != 0 {
		t.Fatalf("validated=%d violations=%v", o.Validated(), o.Violations())
	}
	props := o.Properties()
	if props["non-wasting"] == 0 {
		t.Errorf("greedy-balance schedule should count as non-wasting, got %v", props)
	}
}

func TestOracleFlagsViolations(t *testing.T) {
	inst := core.NewInstance([]float64{0.3, 0.7}, []float64{0.5, 0.5})
	sched := solveWithGreedy(t, inst)
	res, err := core.Execute(inst, sched)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		sched    *core.Schedule
		makespan int
		wasted   float64
		want     string
	}{
		{"missing schedule", nil, -1, -1, "no schedule"},
		{"wrong makespan claim", sched, res.Makespan() + 1, -1, "claims makespan"},
		{"wrong waste claim", sched, res.Makespan(), res.Wasted() + 0.5, "claims waste"},
		{"unfinished schedule", core.NewSchedule(1, 2), -1, -1, "unfinished"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOracle()
			err := o.CheckSchedule(tc.name, inst, tc.sched, tc.makespan, tc.wasted)
			if err == nil {
				t.Fatal("oracle accepted the corrupted response")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("violation %q does not mention %q", err, tc.want)
			}
			if len(o.Violations()) != 1 {
				t.Fatalf("violations=%v", o.Violations())
			}
		})
	}
}

// TestOracleViolationTruncation checks the recorded messages saturate at
// the cap with a sentinel while the count keeps growing.
func TestOracleViolationTruncation(t *testing.T) {
	o := NewOracle()
	inst := core.NewInstance([]float64{1, 1}, []float64{1})
	const total = maxRecordedViolations + 8
	for i := 0; i < total; i++ {
		if err := o.CheckMakespan("impossible", inst, 1); err == nil {
			t.Fatal("oracle accepted a makespan below the lower bound")
		}
	}
	if o.ViolationCount() != total {
		t.Fatalf("ViolationCount=%d, want %d", o.ViolationCount(), total)
	}
	msgs := o.Violations()
	if len(msgs) != maxRecordedViolations {
		t.Fatalf("recorded %d messages, want cap %d", len(msgs), maxRecordedViolations)
	}
	if !strings.Contains(msgs[len(msgs)-1], "further violations truncated") {
		t.Fatalf("last message %q is not the truncation sentinel", msgs[len(msgs)-1])
	}
}

func TestOracleCheckMakespan(t *testing.T) {
	o := NewOracle()
	inst := core.NewInstance([]float64{1, 1}, []float64{1})
	// Three unit jobs of requirement 1 cannot finish in one step.
	if err := o.CheckMakespan("impossible", inst, 1); err == nil {
		t.Fatal("oracle accepted a makespan below the lower bound")
	}
	if err := o.CheckMakespan("fine", inst, 3); err != nil {
		t.Fatalf("oracle rejected a feasible makespan: %v", err)
	}
	if o.Validated() != 2 || len(o.Violations()) != 1 {
		t.Fatalf("validated=%d violations=%v", o.Validated(), o.Violations())
	}
}
