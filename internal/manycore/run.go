package manycore

import (
	"fmt"
	"math"

	"crsharing/internal/core"
)

// Metrics summarises a simulation run.
type Metrics struct {
	// Policy is the name of the policy that produced the run.
	Policy string
	// Ticks is the number of ticks until every task finished (the makespan).
	Ticks int
	// CoreFinish[c] is the tick at which core c finished its queue (0 for
	// cores with empty queues).
	CoreFinish []int
	// TaskFinish maps task names to their completion tick.
	TaskFinish map[string]int
	// BusBusy is the total bandwidth-time actually consumed by progressing
	// phases.
	BusBusy float64
	// BusWasted is the bandwidth-time granted to cores but not converted into
	// progress (over-provisioned or granted to idle cores).
	BusWasted float64
	// BusIdle is the bandwidth-time left unallocated while at least one core
	// still had work.
	BusIdle float64
	// StallTicks is the total number of core-ticks in which an active core
	// progressed at less than half of full speed (a coarse responsiveness
	// indicator).
	StallTicks int
	// IOPhaseTicks and ComputePhaseTicks count core-ticks spent in phases of
	// each kind.
	IOPhaseTicks      int
	ComputePhaseTicks int
	// LowerBound is the simple lower bound on the achievable makespan:
	// max(total work, longest per-core volume).
	LowerBound float64
}

// Utilization returns the fraction of the bus capacity converted into
// progress over the run.
func (m *Metrics) Utilization() float64 {
	if m.Ticks == 0 {
		return 0
	}
	return m.BusBusy / (float64(m.Ticks))
}

// RatioToLowerBound returns Ticks divided by the lower bound (≥ 1 up to
// rounding), the simulator's analogue of an approximation ratio.
func (m *Metrics) RatioToLowerBound() float64 {
	if m.LowerBound <= 0 {
		return 1
	}
	return float64(m.Ticks) / m.LowerBound
}

// String renders a one-line summary.
func (m *Metrics) String() string {
	return fmt.Sprintf("%s: %d ticks (%.2fx LB), util %.1f%%, wasted %.1f, idle %.1f, stalls %d",
		m.Policy, m.Ticks, m.RatioToLowerBound(), 100*m.Utilization(), m.BusWasted, m.BusIdle, m.StallTicks)
}

// Run simulates the workload under the policy until every task finished and
// returns the run's metrics; rec, when not nil, records every tick. The
// workload is converted into its CRSharing instance (see Workload.Instance)
// and stepped through a core.Builder, one tick per time step, with the
// shares the policy allocates from the builder's state. Run does not modify
// the workload. It returns an error when the policy leaves a core with work
// unserved for so long that the builder's safety cap of steps ends the build
// first.
func Run(w *Workload, p Policy, rec *Recorder) (*Metrics, error) {
	inst, err := w.Instance()
	if err != nil {
		return nil, err
	}
	t := newTally(w, p.Name(), rec)
	shares := make([]float64, w.Cores())
	b := core.NewBuilder(inst)
	b.Run(func(b *core.Builder) []float64 {
		t.settle(b)
		clear(shares)
		p.Allocate(b, shares)
		t.open(b, shares)
		return shares
	})
	t.settle(b)
	if !b.Done() {
		return nil, fmt.Errorf("manycore: policy %q left work unfinished after %d ticks (starvation?)", p.Name(), b.Step())
	}
	t.m.Ticks = b.Step()
	return t.m, nil
}

// tally reads a run's metrics off its build. open accounts a step from its
// shares and the builder's state before the step; settle accounts what the
// builder made of it once the step is appended: each core's progress, and
// the phases, tasks and queues it finished.
type tally struct {
	w   *Workload
	m   *Metrics
	rec *Recorder
	// task[c] is the index of core c's running task in its queue, and
	// first[c] the index of that task's first job on processor c.
	task, first []int
	// job[c] and vol[c] are core c's active job and its remaining volume
	// before the open step (job -1: idle); share[c] is its share.
	job   []int
	vol   []float64
	share []float64
	// pending reports that a step was opened and not settled yet.
	pending bool
}

func newTally(w *Workload, policy string, rec *Recorder) *tally {
	n := w.Cores()
	return &tally{
		w: w,
		m: &Metrics{
			Policy:     policy,
			CoreFinish: make([]int, n),
			TaskFinish: make(map[string]int),
			LowerBound: math.Max(w.TotalWork(), w.MaxQueueVolume()),
		},
		rec:   rec,
		task:  make([]int, n),
		first: make([]int, n),
		job:   make([]int, n),
		vol:   make([]float64, n),
		share: make([]float64, n),
	}
}

// open accounts the step about to be appended: the bus time each core is
// granted, uses or wastes, and the bus time left idle. Negative shares are
// raised to zero in place, before the builder sees them.
func (t *tally) open(b *core.Builder, shares []float64) {
	m := t.m
	var granted float64
	for c := range shares {
		share := max(shares[c], 0)
		shares[c] = share
		t.share[c] = share
		granted += share
		t.job[c] = b.ActiveJob(c)
		if t.job[c] < 0 {
			m.BusWasted += share
			continue
		}
		used := math.Min(share, b.DemandThisStep(c))
		m.BusBusy += used
		m.BusWasted += share - used
		t.vol[c] = b.RemainingVolume(c)
		if t.w.Queues[c][t.task[c]].Phases[t.job[c]-t.first[c]].Kind == PhaseIO {
			m.IOPhaseTicks++
		} else {
			m.ComputePhaseTicks++
		}
	}
	// Policies are trusted not to overcommit the bus; should one do so
	// anyway, the tick counts as fully granted rather than negatively idle.
	if idle := 1 - math.Min(granted, 1); idle > 0 {
		m.BusIdle += idle
	}
	t.pending = true
}

// settle accounts the step open accounted last, now that the builder has
// appended it: a no-op before the first step.
func (t *tally) settle(b *core.Builder) {
	if !t.pending {
		return
	}
	t.pending = false
	tick := b.Step() - 1
	m := t.m
	var r TickRecord
	if t.rec != nil {
		n := len(t.job)
		r = TickRecord{
			Tick:     tick,
			Share:    append([]float64(nil), t.share...),
			Progress: make([]float64, n),
			Phase:    make([]int, n),
			Task:     make([]string, n),
		}
	}
	for c, k := range t.job {
		if k < 0 {
			if t.rec != nil {
				r.Phase[c] = -1
			}
			continue
		}
		done := b.ActiveJob(c) != k
		progress := t.vol[c]
		if !done {
			progress -= b.RemainingVolume(c)
		}
		if progress < 0.5 && progress < t.vol[c]-1e-9 {
			// The core ran at under half speed and the slowdown was not just
			// the natural tail of a nearly finished phase.
			m.StallTicks++
		}
		task := t.w.Queues[c][t.task[c]]
		if t.rec != nil {
			r.Progress[c] = progress
			r.Phase[c] = k - t.first[c]
			r.Task[c] = task.Name
		}
		if done && k+1-t.first[c] == len(task.Phases) {
			m.TaskFinish[task.Name] = tick + 1
			t.task[c]++
			t.first[c] = k + 1
		}
		if !b.Active(c) {
			m.CoreFinish[c] = tick + 1
		}
	}
	if t.rec != nil {
		t.rec.record(r)
	}
}

// Compare runs the same workload under several policies and returns the
// metrics in the given order.
func Compare(w *Workload, policies ...Policy) ([]*Metrics, error) {
	var out []*Metrics
	for _, p := range policies {
		m, err := Run(w, p, nil)
		if err != nil {
			return nil, fmt.Errorf("policy %q: %w", p.Name(), err)
		}
		out = append(out, m)
	}
	return out, nil
}
