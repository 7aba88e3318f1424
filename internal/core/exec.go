package core

import (
	"fmt"
	"math"

	"crsharing/internal/numeric"
)

// Result captures the outcome of executing a schedule against an instance:
// per-job start and completion steps, the per-step state trajectory, the
// makespan, and accounting of wasted resource. All step indices are
// zero-based; a completion step of t means the job finished during step t
// (the paper's step t+1).
//
// The trajectory is stored flat, in two slabs whatever the schedule's
// length: one of ints holds the per-job start and completion steps, one of
// floats the remaining work indexed t*m+i. Everything else a Result reports
// is derived from those. A processor finishes its jobs in
// order and at most one per step, so the jobs it has completed by step t
// are the prefix whose completion steps lie below t; whether it progressed
// during step t is the progress law's own test, recomputed from the share,
// the active job and its remaining work.
type Result struct {
	inst  *Instance
	sched *Schedule
	m     int

	// ints and floats are the two slabs every slice below is carved from;
	// ExecuteInto reuses them.
	ints   []int
	floats []float64

	// off[i] is the offset of processor i's first job in start and
	// completion: job (i,j) lives at off[i]+j. off has m+1 entries.
	off []int
	// start[off[i]+j] is the first step in which job (i,j) received resource
	// (or made progress, for jobs with zero requirement); -1 if it never
	// started.
	start []int
	// completion[off[i]+j] is the step in which job (i,j) finished; -1 if it
	// never finished within the schedule's horizon. Finished jobs form a
	// prefix of each processor's sequence with strictly increasing steps.
	completion []int
	// remaining[t*m+i] is the remaining work (alternative-model units) of the
	// active job of processor i at the START of step t; zero when the
	// processor has no unfinished jobs. Indexed 0..steps (inclusive), so row
	// steps is the state after the whole schedule ran.
	remaining []float64

	makespan int
	finished bool
	wasted   float64
}

// Execute runs schedule s on instance inst under the model's progress law and
// returns the resulting trajectory. It returns an error if the instance or
// schedule is malformed or the schedule overuses the resource; it does NOT
// fail when the schedule is too short to finish all jobs — query
// Result.Finished for that.
//
// Semantics per step t and processor i:
//   - a processor works on its first unfinished job (i,j), if any;
//   - the job's remaining work decreases by min(R_i(t), r_ij) (alternative
//     model, equation (2)); equivalently it progresses min(R_i(t)/r_ij, 1)
//     volume units (equation (1));
//   - jobs with r_ij = 0 progress one volume unit per step regardless of the
//     assigned share (equation (1) with the speed capped at one);
//   - a processor processes at most one job per step: share exceeding the
//     active job's remaining need is wasted, it does not spill into the next
//     job;
//   - share assigned to a processor with no unfinished jobs is wasted.
func Execute(inst *Instance, s *Schedule) (*Result, error) { return ExecuteInto(nil, inst, s) }

// ExecuteInto is Execute writing into dst: it reuses dst's two slabs when
// they are large enough and returns dst, so a caller that keeps only the
// makespan, the waste or the properties of an execution can run many on one
// Result. A nil dst allocates a fresh Result, exactly as Execute does. The
// returned Result reports the execution of s on inst alone, whatever dst
// held before; on an error dst is left unchanged and may be reused.
func ExecuteInto(dst *Result, inst *Instance, s *Schedule) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("core: nil schedule")
	}
	if err := s.ValidateFeasible(); err != nil {
		return nil, err
	}
	if p := s.NumProcessors(); p != 0 && p < inst.NumProcessors() {
		return nil, fmt.Errorf("core: schedule covers %d processors, instance has %d", p, inst.NumProcessors())
	}

	m := inst.NumProcessors()
	steps := s.Steps()
	jobs := inst.TotalJobs()

	res := dst
	if res == nil {
		res = new(Result)
	}
	// ints: off (m+1), start (jobs), completion (jobs), next (m). off[0]
	// is zero in every layout and never written, so a reused slab needs no
	// reset there.
	ints := reuse(res.ints, m+1+2*jobs+m)
	off, rest := ints[:m+1], ints[m+1:]
	times, next := rest[:2*jobs], rest[2*jobs:]
	for i := range times {
		times[i] = -1
	}
	clear(next)
	for i := 0; i < m; i++ {
		off[i+1] = off[i] + inst.NumJobs(i)
	}
	// floats: the trajectory rows 0..steps, then the remaining volume of
	// each processor's active job (volume units).
	// Every row after the first is copied from its predecessor before it
	// is updated, so only row 0 needs clearing: its entries for processors
	// without jobs stay zero. remVol is set for a processor whenever it
	// takes a job, before it is read.
	floats := reuse(res.floats, (steps+1)*m+m)
	remaining, remVol := floats[:(steps+1)*m], floats[(steps+1)*m:]
	clear(remaining[:m])

	*res = Result{
		inst:       inst,
		sched:      s,
		m:          m,
		ints:       ints,
		floats:     floats,
		off:        off,
		start:      times[:jobs:jobs],
		completion: times[jobs:],
		remaining:  remaining,
		makespan:   0,
		finished:   true,
	}

	// remWork is the row of the step being built: it starts as a copy of
	// the previous row and is updated in place.
	remWork := remaining[:m]
	for i := 0; i < m; i++ {
		if inst.NumJobs(i) > 0 {
			remWork[i] = inst.Job(i, 0).Work()
			remVol[i] = inst.Job(i, 0).Size
		}
	}

	var wasted numeric.KahanAdder
	for t := 0; t < steps; t++ {
		remWork = remaining[(t+1)*m : (t+2)*m]
		copy(remWork, remaining[t*m:(t+1)*m])
		for i := 0; i < m; i++ {
			share := s.Share(t, i)
			if next[i] >= inst.NumJobs(i) {
				// Idle processor: any share is wasted.
				wasted.Add(share)
				continue
			}
			job := inst.Job(i, next[i])
			k := off[i] + next[i]
			if res.start[k] == -1 && (share > numeric.Eps || job.Req <= numeric.Eps) {
				res.start[k] = t
			}
			if job.Req <= numeric.Eps {
				// Zero-requirement job: full speed regardless of share.
				remVol[i] -= 1
				remWork[i] = 0
				wasted.Add(share)
				if remVol[i] <= numeric.Eps {
					res.completion[k] = t
					res.makespan = t + 1
					advance(inst, i, next, remWork, remVol)
				}
				continue
			}
			// Progress limited by both the share and the per-step speed cap.
			useful := math.Min(share, job.Req)
			useful = math.Min(useful, remWork[i])
			wasted.Add(share - useful)
			remWork[i] -= useful
			remVol[i] -= useful / job.Req
			if remWork[i] <= numeric.Eps {
				remWork[i] = 0
				remVol[i] = 0
				res.completion[k] = t
				res.makespan = t + 1
				advance(inst, i, next, remWork, remVol)
			}
		}
	}

	for i := 0; i < m; i++ {
		if next[i] < inst.NumJobs(i) {
			res.finished = false
		}
	}
	res.wasted = wasted.Sum()
	return res, nil
}

// reuse returns buf resliced to n elements when its capacity allows, and a
// fresh slice otherwise. The contents are stale; callers initialise them.
func reuse[T int | float64](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// advance moves processor i to its next job and initialises the remaining
// work/volume trackers.
func advance(inst *Instance, i int, next []int, remWork, remVol []float64) {
	next[i]++
	if next[i] < inst.NumJobs(i) {
		remWork[i] = inst.Job(i, next[i]).Work()
		remVol[i] = inst.Job(i, next[i]).Size
	} else {
		remWork[i] = 0
		remVol[i] = 0
	}
}

// Instance returns the instance the result was computed for.
func (r *Result) Instance() *Instance { return r.inst }

// Schedule returns the schedule the result was computed for.
func (r *Result) Schedule() *Schedule { return r.sched }

// Finished reports whether all jobs completed within the schedule's horizon.
func (r *Result) Finished() bool { return r.finished }

// Makespan returns the number of time steps until the last job completes. It
// is only meaningful when Finished() is true (otherwise it is the completion
// step of the last job that did finish).
func (r *Result) Makespan() int { return r.makespan }

// Wasted returns the total amount of resource assigned but not converted into
// job progress over the whole schedule.
func (r *Result) Wasted() float64 { return r.wasted }

// StartStep returns the zero-based step in which job (i,j) first received
// resource, or -1 if it never started.
func (r *Result) StartStep(i, j int) int { return r.start[r.off[i]:r.off[i+1]][j] }

// CompletionStep returns the zero-based step in which job (i,j) completed, or
// -1 if it never completed within the schedule's horizon.
func (r *Result) CompletionStep(i, j int) int { return r.completion[r.off[i]:r.off[i+1]][j] }

// JobsDone returns j_i(t): the number of jobs processor i has completed at
// the start of zero-based step t (t may equal Steps(), giving the final
// state).
func (r *Result) JobsDone(t, i int) int {
	// The finished jobs are a prefix with strictly increasing completion
	// steps, so the jobs done before t are found by binary search.
	comp := r.completion[r.off[i]:r.off[i+1]]
	lo, hi := 0, len(comp)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if c := comp[h]; c >= 0 && c < t {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// RemainingJobs returns n_i(t): the number of unfinished jobs of processor i
// at the start of zero-based step t.
func (r *Result) RemainingJobs(t, i int) int {
	return r.inst.NumJobs(i) - r.JobsDone(t, i)
}

// Active reports whether processor i is active (has unfinished jobs) at the
// start of zero-based step t.
func (r *Result) Active(t, i int) bool { return r.RemainingJobs(t, i) > 0 }

// ActiveJob returns the index of the job processor i works on at the start of
// zero-based step t and true, or (-1, false) if the processor is idle.
func (r *Result) ActiveJob(t, i int) (int, bool) {
	if j := r.JobsDone(t, i); j < r.inst.NumJobs(i) {
		return j, true
	}
	return -1, false
}

// RemainingWork returns the remaining work (alternative-model units) of the
// active job on processor i at the start of zero-based step t; zero if the
// processor is idle.
func (r *Result) RemainingWork(t, i int) float64 { return r.remaining[t*r.m : (t+1)*r.m][i] }

// Progressed reports whether processor i made progress on a job during
// zero-based step t.
func (r *Result) Progressed(t, i int) bool {
	if t < 0 || t >= r.Steps() {
		return false
	}
	j, ok := r.ActiveJob(t, i)
	return ok && r.progressed(t, i, j)
}

// progressed reports whether job (i,j), active at the start of step t,
// progressed during t: Execute's own test, min(R_i(t), r_ij, remaining
// work) > Eps, and always for a zero-requirement job.
func (r *Result) progressed(t, i, j int) bool {
	req := r.inst.Job(i, j).Req
	if req <= numeric.Eps {
		return true
	}
	useful := math.Min(r.sched.Share(t, i), req)
	return math.Min(useful, r.remaining[t*r.m+i]) > numeric.Eps
}

// FinishedJobDuring reports whether processor i completed a job during
// zero-based step t.
func (r *Result) FinishedJobDuring(t, i int) bool {
	if t < 0 || t >= r.Steps() {
		return false
	}
	_, finishes := r.stepState(t, i)
	return finishes
}

// stepState returns n_i(t) and whether processor i finishes a job during
// step t (0 <= t <= Steps()), with one search of its completion steps: at
// most one job finishes per step, the one active at its start.
func (r *Result) stepState(t, i int) (left int, finishes bool) {
	comp := r.completion[r.off[i]:r.off[i+1]]
	j := r.JobsDone(t, i)
	return len(comp) - j, j < len(comp) && comp[j] == t
}

// Steps returns the number of steps of the executed schedule.
func (r *Result) Steps() int { return r.sched.Steps() }

// NumProcessors returns the instance's processor count.
func (r *Result) NumProcessors() int { return r.m }

// ActiveJobs returns the identifiers of all jobs active at the start of
// zero-based step t (the edge e_{t+1} of the scheduling hypergraph).
func (r *Result) ActiveJobs(t int) []JobID {
	var ids []JobID
	for i := 0; i < r.NumProcessors(); i++ {
		if j, ok := r.ActiveJob(t, i); ok {
			ids = append(ids, JobID{Proc: i, Pos: j})
		}
	}
	return ids
}

// CompletionOrder returns all jobs sorted by completion step (ties broken by
// processor then position). Jobs that never completed are excluded.
func (r *Result) CompletionOrder() []JobID {
	var ids []JobID
	for i := 0; i < r.m; i++ {
		for j, c := range r.completion[r.off[i]:r.off[i+1]] {
			if c >= 0 {
				ids = append(ids, JobID{Proc: i, Pos: j})
			}
		}
	}
	// Insertion sort keeps this dependency-free and is fast enough for the
	// instance sizes handled here; callers needing large-scale sorting go
	// through package sort in the algorithms themselves.
	for a := 1; a < len(ids); a++ {
		for b := a; b > 0; b-- {
			cb, cp := r.CompletionStep(ids[b].Proc, ids[b].Pos), r.CompletionStep(ids[b-1].Proc, ids[b-1].Pos)
			if cb < cp || (cb == cp && less(ids[b], ids[b-1])) {
				ids[b], ids[b-1] = ids[b-1], ids[b]
			} else {
				break
			}
		}
	}
	return ids
}

func less(a, b JobID) bool {
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Pos < b.Pos
}

// MustMakespan executes s on inst and returns the makespan. It panics if the
// schedule is infeasible or does not finish all jobs; it is a convenience for
// tests and examples.
func MustMakespan(inst *Instance, s *Schedule) int {
	res, err := Execute(inst, s)
	if err != nil {
		panic(err)
	}
	if !res.Finished() {
		panic("core: schedule does not finish all jobs")
	}
	return res.Makespan()
}
