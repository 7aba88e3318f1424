package solver

import (
	"math"
	"sort"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// AdaptSchedule fits a schedule solved for a neighboring instance onto inst:
// the engine runs a request's warm-start hint (typically the client's answer
// for the previous step of an online chain) through it before a kernel sees
// the hint. Two cases fall out of a single execution of the schedule against
// inst:
//
//   - The schedule already finishes every job (a job was dropped or finished,
//     a requirement was nudged down, queues were reordered compatibly): the
//     surplus shares become waste and the schedule is returned trimmed to its
//     achieved makespan.
//   - The schedule runs out of steps with work left (a job was added, a
//     requirement was nudged up): the execution's final state says exactly
//     which job each processor is on and how much work it has left, and a
//     greedy completion is appended — full-requirement shares, processors
//     with the longest remaining tail first.
//
// The adapted schedule is re-executed before it is returned, so ok == true
// guarantees a feasible, finishing schedule; the caller (a kernel accepting
// a warm start) still derives the makespan itself. A schedule with no steps
// (or no processors) carries nothing to adapt and is refused rather than
// completed from scratch. The input schedule is never mutated.
func AdaptSchedule(inst *core.Instance, sched *core.Schedule) (*core.Schedule, bool) {
	if inst == nil || sched == nil || sched.NumProcessors() == 0 {
		return nil, false
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		return nil, false
	}
	m := inst.NumProcessors()
	if res.Finished() {
		out := core.NewSchedule(res.Makespan(), m)
		for t := 0; t < res.Makespan(); t++ {
			for i := 0; i < m; i++ {
				out.Alloc[t][i] = sched.Share(t, i)
			}
		}
		return out, true
	}
	out := extendSchedule(inst, sched, res)
	if out == nil {
		return nil, false
	}
	if check, err := core.Execute(inst, out); err != nil || !check.Finished() {
		return nil, false
	}
	return out, true
}

// extendSchedule appends a greedy completion for the work sched leaves
// unfinished on inst. The extension gives each processor its active job's
// full requirement whenever it fits in the step (so each served step
// completes one full-speed step of that job), serving processors with more
// remaining steps first. The per-processor step counts are derived from the
// execution's final snapshot; zero-requirement jobs (whose partial progress
// the snapshot cannot express) are conservatively restarted, which at worst
// pads the tail — the caller re-executes the result, so the true makespan is
// always re-derived. Returns nil when the completion fails to converge.
func extendSchedule(inst *core.Instance, sched *core.Schedule, res *core.Result) *core.Schedule {
	m := inst.NumProcessors()
	T := sched.Steps()

	job := make([]int, m)       // current job index per processor
	stepsLeft := make([]int, m) // full-requirement steps to finish it
	budget := 0
	for i := 0; i < m; i++ {
		job[i] = res.JobsDone(T, i)
		if job[i] >= inst.NumJobs(i) {
			continue
		}
		j := inst.Job(i, job[i])
		if j.Req <= numeric.Eps {
			stepsLeft[i] = j.Steps()
		} else {
			stepsLeft[i] = int(math.Ceil(res.RemainingWork(T, i)/j.Req - numeric.Eps))
			if stepsLeft[i] < 1 {
				stepsLeft[i] = 1
			}
		}
		budget += stepsLeft[i]
		for k := job[i] + 1; k < inst.NumJobs(i); k++ {
			budget += inst.Job(i, k).Steps()
		}
	}

	out := core.NewSchedule(T, m)
	for t := 0; t < T; t++ {
		for i := 0; i < m; i++ {
			out.Alloc[t][i] = sched.Share(t, i)
		}
	}

	remSteps := func(i int) int {
		if job[i] >= inst.NumJobs(i) {
			return 0
		}
		n := stepsLeft[i]
		for k := job[i] + 1; k < inst.NumJobs(i); k++ {
			n += inst.Job(i, k).Steps()
		}
		return n
	}
	order := make([]int, m)
	shares := make([]float64, m)
	for step := 0; step <= budget+m; step++ {
		active := 0
		for i := 0; i < m; i++ {
			if job[i] < inst.NumJobs(i) {
				order[active] = i
				active++
			}
		}
		if active == 0 {
			return out
		}
		ord := order[:active]
		sort.SliceStable(ord, func(a, b int) bool { return remSteps(ord[a]) > remSteps(ord[b]) })
		for i := range shares {
			shares[i] = 0
		}
		used := 0.0
		for _, i := range ord {
			req := inst.Job(i, job[i]).Req
			served := false
			if req <= numeric.Eps || numeric.Leq(used+req, 1) {
				shares[i] = req
				used += req
				served = true
			}
			if served {
				stepsLeft[i]--
				if stepsLeft[i] <= 0 {
					job[i]++
					if job[i] < inst.NumJobs(i) {
						stepsLeft[i] = inst.Job(i, job[i]).Steps()
					}
				}
			}
		}
		out.AppendStep(shares)
	}
	return nil // did not converge within the step budget
}
