// Package manycore implements the system substrate that motivates the paper
// (Section 1): a many-core machine whose cores share a single memory/I/O
// bandwidth channel of capacity 1. Tasks progress through phases; each phase
// declares the bandwidth share it needs to run at full speed and, when it
// receives only an x-fraction of that share, it progresses at an x-fraction
// of full speed. That is the progress law of the CRSharing model, so the
// simulator does not implement it again: Run converts a workload into its
// CRSharing instance (each core's queue, flattened, is one processor's job
// sequence; see Workload.Instance) and steps it through core.Builder, one
// tick per time step, asking a pluggable online bandwidth-allocation policy
// for every step's shares. What the package adds to the model is the
// system's vocabulary (tasks, phases, queues) and the per-tick metrics and
// recording it reads off the build.
package manycore

import (
	"fmt"
	"math"

	"crsharing/internal/core"
)

// PhaseKind classifies a phase for reporting purposes; the engine treats all
// kinds identically (progress is governed by bandwidth alone), but workload
// generators and metrics distinguish I/O-bound from compute-bound phases.
type PhaseKind int

const (
	// PhaseIO is an I/O- or memory-bound phase: it needs a significant share
	// of the shared bandwidth to run at full speed.
	PhaseIO PhaseKind = iota
	// PhaseCompute is a compute-bound phase: it needs little or no shared
	// bandwidth.
	PhaseCompute
)

// String renders the phase kind.
func (k PhaseKind) String() string {
	switch k {
	case PhaseIO:
		return "io"
	case PhaseCompute:
		return "compute"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Phase is one stage of a task with a constant bandwidth requirement.
type Phase struct {
	// Kind classifies the phase (reporting only).
	Kind PhaseKind
	// Bandwidth is the share of the machine's total bandwidth the phase needs
	// to progress at full speed, in [0, 1].
	Bandwidth float64
	// Volume is the amount of work in the phase, measured in ticks at full
	// speed (a volume of 3 takes three ticks when the phase always receives
	// its full bandwidth requirement).
	Volume float64
}

// Work returns the total bandwidth-time product the phase consumes, i.e. its
// contribution to the aggregate-bandwidth lower bound.
func (p Phase) Work() float64 { return p.Bandwidth * p.Volume }

// Validate checks the phase parameters.
func (p Phase) Validate() error {
	if math.IsNaN(p.Bandwidth) || p.Bandwidth < 0 || p.Bandwidth > 1 {
		return fmt.Errorf("manycore: phase bandwidth %v outside [0,1]", p.Bandwidth)
	}
	if math.IsNaN(p.Volume) || p.Volume <= 0 {
		return fmt.Errorf("manycore: phase volume %v must be positive", p.Volume)
	}
	return nil
}

// Task is a program: a named sequence of phases executed in order on a single
// core.
type Task struct {
	Name   string
	Phases []Phase
}

// NewTask builds a task from phases.
func NewTask(name string, phases ...Phase) *Task {
	return &Task{Name: name, Phases: append([]Phase(nil), phases...)}
}

// TotalVolume returns the sum of phase volumes (ticks at full speed).
func (t *Task) TotalVolume() float64 {
	var v float64
	for _, p := range t.Phases {
		v += p.Volume
	}
	return v
}

// TotalWork returns the total bandwidth-time product of the task.
func (t *Task) TotalWork() float64 {
	var w float64
	for _, p := range t.Phases {
		w += p.Work()
	}
	return w
}

// Validate checks all phases.
func (t *Task) Validate() error {
	if t == nil {
		return fmt.Errorf("manycore: nil task")
	}
	if len(t.Phases) == 0 {
		return fmt.Errorf("manycore: task %q has no phases", t.Name)
	}
	for i, p := range t.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("task %q phase %d: %w", t.Name, i, err)
		}
	}
	return nil
}

// Workload assigns a queue of tasks to every core of a machine. Cores process
// their queues sequentially, one task at a time, one phase at a time.
type Workload struct {
	// Queues[c] is the ordered task queue of core c.
	Queues [][]*Task
}

// NewWorkload returns a workload with one empty queue per core.
func NewWorkload(cores int) *Workload {
	return &Workload{Queues: make([][]*Task, cores)}
}

// Assign appends a task to the queue of the given core.
func (w *Workload) Assign(core int, task *Task) {
	w.Queues[core] = append(w.Queues[core], task)
}

// AssignRoundRobin distributes the tasks over the cores in round-robin order,
// the simplest placement strategy; the paper's model takes the placement as
// given, so the simulator does the same.
func (w *Workload) AssignRoundRobin(tasks []*Task) {
	for i, t := range tasks {
		w.Assign(i%len(w.Queues), t)
	}
}

// Cores returns the number of cores the workload covers.
func (w *Workload) Cores() int { return len(w.Queues) }

// NumTasks returns the total number of tasks.
func (w *Workload) NumTasks() int {
	n := 0
	for _, q := range w.Queues {
		n += len(q)
	}
	return n
}

// TotalWork returns the aggregate bandwidth-time product of all tasks, the
// analogue of Observation 1's lower bound for the simulator: the bus serves
// at most one unit of bandwidth-time per tick.
func (w *Workload) TotalWork() float64 {
	var total float64
	for _, q := range w.Queues {
		for _, t := range q {
			total += t.TotalWork()
		}
	}
	return total
}

// TotalVolume returns the aggregate volume (full-speed ticks) of all tasks.
func (w *Workload) TotalVolume() float64 {
	var total float64
	for _, q := range w.Queues {
		for _, t := range q {
			total += t.TotalVolume()
		}
	}
	return total
}

// MaxQueueVolume returns the largest per-core total volume, the analogue of
// the chain lower bound n = max_i n_i.
func (w *Workload) MaxQueueVolume() float64 {
	var max float64
	for _, q := range w.Queues {
		var v float64
		for _, t := range q {
			v += t.TotalVolume()
		}
		if v > max {
			max = v
		}
	}
	return max
}

// Validate checks every task of the workload.
func (w *Workload) Validate() error {
	if w == nil || len(w.Queues) == 0 {
		return fmt.Errorf("manycore: workload covers no cores")
	}
	for c, q := range w.Queues {
		for _, t := range q {
			if err := t.Validate(); err != nil {
				return fmt.Errorf("core %d: %w", c, err)
			}
		}
	}
	return nil
}

// Instance converts the workload into the CRSharing instance Run simulates:
// core c becomes processor c, whose jobs are the phases of c's queue in
// order, task after task, each job's requirement being the phase's
// bandwidth share and its size the phase's volume. Task boundaries
// disappear, exactly as the paper's model treats a processor's job
// sequence; a core with an empty queue becomes a processor without jobs.
func (w *Workload) Instance() (*core.Instance, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	inst := &core.Instance{Procs: make([][]core.Job, len(w.Queues))}
	for c, q := range w.Queues {
		for _, t := range q {
			for _, p := range t.Phases {
				inst.Procs[c] = append(inst.Procs[c], core.Job{Req: p.Bandwidth, Size: p.Volume})
			}
		}
	}
	return inst, nil
}
