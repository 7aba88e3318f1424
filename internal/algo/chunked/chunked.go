// Package chunked implements a rolling-horizon heuristic for the CRSharing
// problem with unit size jobs: the job sequences are cut into windows of at
// most W columns, each window is solved exactly with the fixed-m algorithm of
// package optresm, and the resulting schedules are concatenated. It
// interpolates between RoundRobin (W = 1 behaves like a phase-per-column
// schedule with optimal intra-phase packing) and the exact algorithm
// (W ≥ n), and serves as the "what if the scheduler could look a few jobs
// ahead" ablation in the experiments. The paper does not define this
// algorithm; it is an extension in the spirit of its Section 9 outlook.
package chunked

import (
	"context"
	"fmt"

	"crsharing/internal/algo/optresm"
	"crsharing/internal/core"
)

// Scheduler is the rolling-horizon (windowed exact) heuristic.
type Scheduler struct {
	// Window is the number of job columns solved exactly at a time; values
	// below 1 are treated as 1.
	Window int
}

// New returns a chunked scheduler with the given window.
func New(window int) *Scheduler { return &Scheduler{Window: window} }

// Name returns "chunked-exact-w" followed by the window.
func (s *Scheduler) Name() string { return fmt.Sprintf("chunked-exact-w%d", s.window()) }

func (s *Scheduler) window() int {
	if s.Window < 1 {
		return 1
	}
	return s.Window
}

// Schedule solves the windows one after another and concatenates their
// schedules. ctx is forwarded to the exact per-window solves, so
// cancellation takes effect within a window.
func (s *Scheduler) Schedule(ctx context.Context, inst *core.Instance) (*core.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if !inst.IsUnitSize() {
		return nil, fmt.Errorf("chunked: requires unit size jobs")
	}
	m := inst.NumProcessors()
	n := inst.MaxJobs()
	w := s.window()
	exact := optresm.New()

	out := &core.Schedule{}
	for start := 0; start < n; start += w {
		end := start + w
		if end > n {
			end = n
		}
		// Build the window sub-instance: columns [start, end) of every
		// processor (processors whose sequence ends earlier contribute fewer
		// jobs, possibly none).
		rows := make([][]float64, m)
		for i := 0; i < m; i++ {
			for j := start; j < end && j < inst.NumJobs(i); j++ {
				rows[i] = append(rows[i], inst.Job(i, j).Req)
			}
		}
		sub := core.NewInstance(rows...)
		if sub.TotalJobs() == 0 {
			continue
		}
		subSched, err := exact.Schedule(ctx, sub)
		if err != nil {
			return nil, fmt.Errorf("chunked: window [%d,%d): %w", start+1, end, err)
		}
		// The window schedules are independent because every window starts
		// with all processors aligned at its first column, so concatenation
		// is feasible (it may waste resource at window boundaries, exactly
		// like RoundRobin does at phase boundaries).
		for _, row := range subSched.Alloc {
			out.AppendStep(row)
		}
	}
	return out, nil
}
