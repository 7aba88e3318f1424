package bruteforce

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"crsharing/internal/core"
)

// TestOracleSharesNoSolverCode keeps the oracle independent: it must not
// import any other solver package, in particular not the move enumerator
// that optresm and branch-and-bound share, or a defect there would be
// invisible to every test that compares a kernel against the oracle.
func TestOracleSharesNoSolverCode(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted the literal
			if strings.HasPrefix(path, "crsharing/internal/algo/") {
				t.Errorf("%s imports %s; the oracle must share no code with the solvers it checks", name, path)
			}
		}
	}
}

func TestMakespanSingleProcessor(t *testing.T) {
	// One processor, three unit jobs: one job per step regardless of
	// requirements, so the optimum is 3.
	inst := core.NewInstance([]float64{0.2, 0.9, 0.1})
	got, err := Makespan(inst)
	if err != nil {
		t.Fatalf("Makespan: %v", err)
	}
	if got != 3 {
		t.Fatalf("makespan = %d, want 3", got)
	}
}

func TestMakespanTwoProcessorsFit(t *testing.T) {
	// Each step can finish one job of each processor: requirements pair up to
	// at most 1 per step.
	inst := core.NewInstance([]float64{0.5, 0.4}, []float64{0.5, 0.6})
	got, err := Makespan(inst)
	if err != nil {
		t.Fatalf("Makespan: %v", err)
	}
	if got != 2 {
		t.Fatalf("makespan = %d, want 2", got)
	}
}

func TestMakespanNeedsCarrying(t *testing.T) {
	// Two jobs of requirement 0.8 on each of two processors. Total work 3.2,
	// so at least 4 steps; 4 steps suffice by always finishing one job and
	// carrying the leftover.
	inst := core.NewInstance([]float64{0.8, 0.8}, []float64{0.8, 0.8})
	got, err := Makespan(inst)
	if err != nil {
		t.Fatalf("Makespan: %v", err)
	}
	if got != 4 {
		t.Fatalf("makespan = %d, want 4", got)
	}
}

func TestMakespanThreeProcessors(t *testing.T) {
	// The Figure 2 input: optimum is 4 (the nested schedule of Figure 2b).
	inst := core.NewInstance(
		[]float64{0.5, 0.5, 0.5, 0.5},
		[]float64{1.0},
		[]float64{1.0},
	)
	got, err := Makespan(inst)
	if err != nil {
		t.Fatalf("Makespan: %v", err)
	}
	if got != 4 {
		t.Fatalf("makespan = %d, want 4", got)
	}
}

func TestMakespanZeroRequirementJobs(t *testing.T) {
	// Zero-requirement jobs still occupy one step each on their processor.
	inst := core.NewInstance([]float64{0, 0, 0}, []float64{1.0})
	got, err := Makespan(inst)
	if err != nil {
		t.Fatalf("Makespan: %v", err)
	}
	if got != 3 {
		t.Fatalf("makespan = %d, want 3", got)
	}
}

func TestMakespanRejectsNonUnitSizes(t *testing.T) {
	inst := core.NewSizedInstance([]core.Job{{Req: 0.5, Size: 2}})
	if _, err := Makespan(inst); err == nil {
		t.Fatalf("expected error for non-unit job sizes")
	}
}

func TestMakespanEmptyInstance(t *testing.T) {
	inst := core.NewInstance()
	got, err := Makespan(inst)
	if err != nil {
		t.Fatalf("Makespan: %v", err)
	}
	if got != 0 {
		t.Fatalf("makespan of empty instance = %d, want 0", got)
	}
}

func TestMakespanMatchesWorkBoundOnSaturatedInstance(t *testing.T) {
	// All requirements are 1: the optimum is exactly the total number of
	// jobs, since only one job can run per step.
	inst := core.NewInstance([]float64{1, 1}, []float64{1}, []float64{1})
	got, err := Makespan(inst)
	if err != nil {
		t.Fatalf("Makespan: %v", err)
	}
	if got != 4 {
		t.Fatalf("makespan = %d, want 4", got)
	}
}
