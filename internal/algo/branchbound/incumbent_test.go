package branchbound

import (
	"context"
	"sync"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/progress"
)

// incumbentInstance is small enough for an instant exact solve but chosen so
// GreedyBalance's seed is not obviously optimal, exercising the report path.
func incumbentInstance() *core.Instance {
	return core.NewInstance(
		[]float64{0.6, 0.4, 0.7},
		[]float64{0.5, 0.6},
		[]float64{0.3, 0.9},
	)
}

// collectIncumbents runs the scheduler under an observer and returns the
// reported sequence.
func collectIncumbents(t *testing.T, s interface {
	ScheduleContext(context.Context, *core.Instance) (*core.Schedule, error)
}, inst *core.Instance) []progress.Incumbent {
	t.Helper()
	var mu sync.Mutex
	var got []progress.Incumbent
	ctx := progress.WithObserver(context.Background(), func(inc progress.Incumbent) {
		mu.Lock()
		got = append(got, inc)
		mu.Unlock()
	})
	sched, err := s.ScheduleContext(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil || !res.Finished() {
		t.Fatalf("invalid result schedule: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("expected at least the seed incumbent to be reported")
	}
	if got[len(got)-1].Makespan < res.Makespan() {
		t.Fatalf("last incumbent %d better than final makespan %d", got[len(got)-1].Makespan, res.Makespan())
	}
	return append([]progress.Incumbent(nil), got...)
}

func TestSerialReportsIncumbents(t *testing.T) {
	got := collectIncumbents(t, New(), incumbentInstance())
	for i := 1; i < len(got); i++ {
		if got[i].Makespan >= got[i-1].Makespan {
			t.Fatalf("serial incumbents must strictly improve after the seed: %+v", got)
		}
	}
}

func TestParallelReportsIncumbents(t *testing.T) {
	// The parallel name runs the one search, so its reports are the serial
	// sequence: the seed first, strictly improving, each under its own name.
	got := collectIncumbents(t, NewParallel(), incumbentInstance())
	if got[0].Solver != "branch-and-bound-parallel" {
		t.Fatalf("first report should be the seed from the parallel solver, got %+v", got[0])
	}
	for i, inc := range got {
		if inc.Solver != "branch-and-bound-parallel" || inc.Makespan <= 0 {
			t.Fatalf("malformed incumbent: %+v", inc)
		}
		if i > 0 && inc.Makespan >= got[i-1].Makespan {
			t.Fatalf("report %d (%v) does not improve on report %d (%v)", i, inc.Makespan, i-1, got[i-1].Makespan)
		}
	}
}
