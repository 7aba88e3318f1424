// Package algo defines the common interface implemented by every CRSharing
// scheduling algorithm in this repository, together with an evaluation
// envelope shared by the experiment harness, the examples and the tests.
// Name-based lookup lives in internal/solver's Registry.
package algo

import (
	"fmt"

	"crsharing/internal/core"
)

// Scheduler computes a feasible schedule for a CRSharing instance.
// Implementations must return a schedule that finishes every job; they may
// return an error when the instance lies outside the algorithm's supported
// domain (for example, the m=2 dynamic program rejects instances with three
// processors).
type Scheduler interface {
	// Name returns a short stable identifier, e.g. "greedy-balance".
	Name() string
	// Schedule computes a complete feasible schedule for the instance.
	Schedule(inst *core.Instance) (*core.Schedule, error)
}

// Exact marks schedulers that always return an optimal (minimum-makespan)
// schedule for every instance they accept.
type Exact interface {
	Scheduler
	// IsExact is a marker; it always returns true.
	IsExact() bool
}

// Evaluation bundles a schedule together with the quantities the experiment
// harness reports about it.
type Evaluation struct {
	Algorithm  string
	Schedule   *core.Schedule
	Makespan   int
	LowerBound int
	Ratio      float64
	Properties core.Properties
	Wasted     float64
}

// Evaluate runs the scheduler on the instance, executes the resulting
// schedule and returns the evaluation. It fails if the scheduler errs, the
// schedule is infeasible, or it does not finish all jobs.
func Evaluate(s Scheduler, inst *core.Instance) (*Evaluation, error) {
	sched, err := s.Schedule(inst)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		return nil, fmt.Errorf("%s: produced invalid schedule: %w", s.Name(), err)
	}
	if !res.Finished() {
		return nil, fmt.Errorf("%s: schedule does not finish all jobs", s.Name())
	}
	lb := core.LowerBounds(inst).Best()
	ev := &Evaluation{
		Algorithm:  s.Name(),
		Schedule:   sched,
		Makespan:   res.Makespan(),
		LowerBound: lb,
		Properties: core.CheckProperties(res),
		Wasted:     res.Wasted(),
	}
	if lb > 0 {
		ev.Ratio = float64(ev.Makespan) / float64(lb)
	} else {
		ev.Ratio = 1
	}
	return ev, nil
}
