package core

import (
	"fmt"
	"math"
	"strings"

	"crsharing/internal/numeric"
)

// Schedule is a feasible resource assignment: Alloc[t][i] is the share
// R_i(t+1) of the resource granted to processor i during (zero-based) time
// step t. A schedule never references the instance it was computed for; use
// Execute to evaluate it against an instance.
type Schedule struct {
	Alloc [][]float64 `json:"alloc"`
}

// NewSchedule allocates an all-zero schedule with the given number of steps
// and processors.
func NewSchedule(steps, procs int) *Schedule {
	alloc := make([][]float64, steps)
	backing := make([]float64, steps*procs)
	for t := range alloc {
		alloc[t], backing = backing[:procs:procs], backing[procs:]
	}
	return &Schedule{Alloc: alloc}
}

// Steps returns the number of time steps covered by the schedule.
func (s *Schedule) Steps() int { return len(s.Alloc) }

// NumProcessors returns the number of processors the schedule assigns
// resource shares to (0 for an empty schedule).
func (s *Schedule) NumProcessors() int {
	if len(s.Alloc) == 0 {
		return 0
	}
	return len(s.Alloc[0])
}

// Share returns R_i(t) for zero-based step t and processor i. Steps beyond
// the schedule's horizon have share zero.
func (s *Schedule) Share(t, i int) float64 {
	if t < 0 || t >= len(s.Alloc) || i < 0 || i >= len(s.Alloc[t]) {
		return 0
	}
	return s.Alloc[t][i]
}

// StepTotal returns Σ_i R_i(t) for zero-based step t.
func (s *Schedule) StepTotal(t int) float64 {
	if t < 0 || t >= len(s.Alloc) {
		return 0
	}
	return numeric.Sum(s.Alloc[t])
}

// AppendStep appends one time step with the given per-processor shares.
func (s *Schedule) AppendStep(shares []float64) {
	s.Alloc = append(s.Alloc, append([]float64(nil), shares...))
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := NewSchedule(s.Steps(), s.NumProcessors())
	for t := range s.Alloc {
		copy(out.Alloc[t], s.Alloc[t])
	}
	return out
}

// ValidateFeasible checks the two structural feasibility constraints of the
// model: shares are non-negative and, in every step, the aggregate share does
// not exceed the resource capacity of one.
func (s *Schedule) ValidateFeasible() error {
	for t, row := range s.Alloc {
		for i, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("core: share R_%d(%d) = %v is not finite", i+1, t+1, x)
			}
			if x < -numeric.Eps {
				return fmt.Errorf("core: negative share R_%d(%d) = %v", i+1, t+1, x)
			}
		}
		if total := numeric.Sum(row); total > 1+1e-7 {
			return fmt.Errorf("core: resource overused at step %d: Σ R_i = %v > 1", t+1, total)
		}
	}
	return nil
}

// String renders the schedule as a step-by-step table of shares in percent.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule with %d steps, %d processors\n", s.Steps(), s.NumProcessors())
	for t, row := range s.Alloc {
		fmt.Fprintf(&b, "  t=%3d:", t+1)
		for _, x := range row {
			fmt.Fprintf(&b, " %6.2f", x*100)
		}
		fmt.Fprintf(&b, "  (Σ=%6.2f)\n", numeric.Sum(row)*100)
	}
	return b.String()
}
