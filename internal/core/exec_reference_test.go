package core_test

// The schedule execution path as it stood before Result stored its
// trajectory flat: Execute with per-step rows, the Section-4 checks over
// them, and the Builder that allocated every row. Kept verbatim (only
// renamed, and qualified with the package name) as the reference the
// parity tests and FuzzExecute hold the current code to.

import (
	"fmt"
	"math"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// Result captures the outcome of executing a schedule against an instance:
// per-job start and completion steps, the per-step state trajectory, the
// makespan, and accounting of wasted resource. All step indices are
// zero-based; a completion step of t means the job finished during step t
// (the paper's step t+1).
type refResult struct {
	inst  *core.Instance
	sched *core.Schedule

	// start[i][j] is the first step in which job (i,j) received resource (or
	// made progress, for jobs with zero requirement); -1 if it never started.
	start [][]int
	// completion[i][j] is the step in which job (i,j) finished; -1 if it
	// never finished within the schedule's horizon.
	completion [][]int
	// remaining[t][i] is the remaining work (alternative-model units) of the
	// active job of processor i at the START of step t; zero when the
	// processor has no unfinished jobs. Indexed 0..steps (inclusive), so
	// remaining[steps] is the state after the whole schedule ran.
	remaining [][]float64
	// jobsDone[t][i] is j_i(t): the number of jobs processor i has completed
	// at the START of step t. Indexed 0..steps (inclusive).
	jobsDone [][]int
	// progressed[t][i] reports whether processor i made progress on a job
	// during step t (needed to decide whether a zero-requirement job or a
	// zero-share step "runs" a job).
	progressed [][]bool

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
func refExecute(inst *core.Instance, s *core.Schedule) (*refResult, error) {
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

	res := &refResult{
		inst:       inst,
		sched:      s,
		start:      make([][]int, m),
		completion: make([][]int, m),
		remaining:  make([][]float64, steps+1),
		jobsDone:   make([][]int, steps+1),
		progressed: make([][]bool, steps),
		makespan:   0,
		finished:   true,
	}
	for i := 0; i < m; i++ {
		ni := inst.NumJobs(i)
		res.start[i] = make([]int, ni)
		res.completion[i] = make([]int, ni)
		for j := range res.start[i] {
			res.start[i][j] = -1
			res.completion[i][j] = -1
		}
	}

	// Per-processor dynamic state.
	next := make([]int, m)        // index of first unfinished job
	remWork := make([]float64, m) // remaining work of that job (resource units)
	remVol := make([]float64, m)  // remaining volume of that job (volume units)
	for i := 0; i < m; i++ {
		if inst.NumJobs(i) > 0 {
			remWork[i] = inst.Job(i, 0).Work()
			remVol[i] = inst.Job(i, 0).Size
		}
	}

	snapshot := func(t int) {
		res.remaining[t] = append([]float64(nil), remWork...)
		done := make([]int, m)
		copy(done, next)
		res.jobsDone[t] = done
	}
	snapshot(0)

	var wasted numeric.KahanAdder
	for t := 0; t < steps; t++ {
		res.progressed[t] = make([]bool, m)
		for i := 0; i < m; i++ {
			share := s.Share(t, i)
			if next[i] >= inst.NumJobs(i) {
				// Idle processor: any share is wasted.
				wasted.Add(share)
				continue
			}
			job := inst.Job(i, next[i])
			if res.start[i][next[i]] == -1 && (share > numeric.Eps || job.Req <= numeric.Eps) {
				res.start[i][next[i]] = t
			}
			if job.Req <= numeric.Eps {
				// Zero-requirement job: full speed regardless of share.
				remVol[i] -= 1
				remWork[i] = 0
				res.progressed[t][i] = true
				wasted.Add(share)
				if remVol[i] <= numeric.Eps {
					res.completion[i][next[i]] = t
					res.makespan = t + 1
					refAdvance(inst, i, next, remWork, remVol)
				}
				continue
			}
			// Progress limited by both the share and the per-step speed cap.
			useful := math.Min(share, job.Req)
			useful = math.Min(useful, remWork[i])
			if useful > numeric.Eps {
				res.progressed[t][i] = true
			}
			wasted.Add(share - useful)
			remWork[i] -= useful
			remVol[i] -= useful / job.Req
			if remWork[i] <= numeric.Eps {
				remWork[i] = 0
				remVol[i] = 0
				res.completion[i][next[i]] = t
				res.makespan = t + 1
				refAdvance(inst, i, next, remWork, remVol)
			}
		}
		snapshot(t + 1)
	}

	for i := 0; i < m; i++ {
		if next[i] < inst.NumJobs(i) {
			res.finished = false
		}
	}
	res.wasted = wasted.Sum()
	return res, nil
}

// advance moves processor i to its next job and initialises the remaining
// work/volume trackers.
func refAdvance(inst *core.Instance, i int, next []int, remWork, remVol []float64) {
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
func (r *refResult) Instance() *core.Instance { return r.inst }

// Schedule returns the schedule the result was computed for.
func (r *refResult) Schedule() *core.Schedule { return r.sched }

// Finished reports whether all jobs completed within the schedule's horizon.
func (r *refResult) Finished() bool { return r.finished }

// Makespan returns the number of time steps until the last job completes. It
// is only meaningful when Finished() is true (otherwise it is the completion
// step of the last job that did finish).
func (r *refResult) Makespan() int { return r.makespan }

// Wasted returns the total amount of resource assigned but not converted into
// job progress over the whole schedule.
func (r *refResult) Wasted() float64 { return r.wasted }

// StartStep returns the zero-based step in which job (i,j) first received
// resource, or -1 if it never started.
func (r *refResult) StartStep(i, j int) int { return r.start[i][j] }

// CompletionStep returns the zero-based step in which job (i,j) completed, or
// -1 if it never completed within the schedule's horizon.
func (r *refResult) CompletionStep(i, j int) int { return r.completion[i][j] }

// JobsDone returns j_i(t): the number of jobs processor i has completed at
// the start of zero-based step t (t may equal Steps(), giving the final
// state).
func (r *refResult) JobsDone(t, i int) int { return r.jobsDone[t][i] }

// RemainingJobs returns n_i(t): the number of unfinished jobs of processor i
// at the start of zero-based step t.
func (r *refResult) RemainingJobs(t, i int) int {
	return r.inst.NumJobs(i) - r.jobsDone[t][i]
}

// Active reports whether processor i is active (has unfinished jobs) at the
// start of zero-based step t.
func (r *refResult) Active(t, i int) bool { return r.RemainingJobs(t, i) > 0 }

// ActiveJob returns the index of the job processor i works on at the start of
// zero-based step t and true, or (-1, false) if the processor is idle.
func (r *refResult) ActiveJob(t, i int) (int, bool) {
	if !r.Active(t, i) {
		return -1, false
	}
	return r.jobsDone[t][i], true
}

// RemainingWork returns the remaining work (alternative-model units) of the
// active job on processor i at the start of zero-based step t; zero if the
// processor is idle.
func (r *refResult) RemainingWork(t, i int) float64 { return r.remaining[t][i] }

// Progressed reports whether processor i made progress on a job during
// zero-based step t.
func (r *refResult) Progressed(t, i int) bool {
	if t < 0 || t >= len(r.progressed) {
		return false
	}
	return r.progressed[t][i]
}

// FinishedJobDuring reports whether processor i completed a job during
// zero-based step t.
func (r *refResult) FinishedJobDuring(t, i int) bool {
	if t < 0 || t+1 >= len(r.jobsDone) {
		return false
	}
	return r.jobsDone[t+1][i] > r.jobsDone[t][i]
}

// Steps returns the number of steps of the executed schedule.
func (r *refResult) Steps() int { return r.sched.Steps() }

// NumProcessors returns the instance's processor count.
func (r *refResult) NumProcessors() int { return r.inst.NumProcessors() }

// ActiveJobs returns the identifiers of all jobs active at the start of
// zero-based step t (the edge e_{t+1} of the scheduling hypergraph).
func (r *refResult) ActiveJobs(t int) []core.JobID {
	var ids []core.JobID
	for i := 0; i < r.NumProcessors(); i++ {
		if j, ok := r.ActiveJob(t, i); ok {
			ids = append(ids, core.JobID{Proc: i, Pos: j})
		}
	}
	return ids
}

// CompletionOrder returns all jobs sorted by completion step (ties broken by
// processor then position). Jobs that never completed are excluded.
func (r *refResult) CompletionOrder() []core.JobID {
	var ids []core.JobID
	for i := range r.completion {
		for j, c := range r.completion[i] {
			if c >= 0 {
				ids = append(ids, core.JobID{Proc: i, Pos: j})
			}
		}
	}
	// Insertion sort keeps this dependency-free and is fast enough for the
	// instance sizes handled here; callers needing large-scale sorting go
	// through package sort in the algorithms themselves.
	for a := 1; a < len(ids); a++ {
		for b := a; b > 0; b-- {
			cb, cp := r.completion[ids[b].Proc][ids[b].Pos], r.completion[ids[b-1].Proc][ids[b-1].Pos]
			if cb < cp || (cb == cp && refLess(ids[b], ids[b-1])) {
				ids[b], ids[b-1] = ids[b-1], ids[b]
			} else {
				break
			}
		}
	}
	return ids
}

func refLess(a, b core.JobID) bool {
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	return a.Pos < b.Pos
}

// CheckProperties evaluates all four structural properties for the executed
// schedule.
func refCheckProperties(r *refResult) core.Properties {
	return core.Properties{
		NonWasting:  refIsNonWasting(r),
		Progressive: refIsProgressive(r),
		Nested:      refIsNested(r),
		Balanced:    refIsBalanced(r),
	}
}

// IsNonWasting implements Definition 2: a schedule is non-wasting if, during
// every time step t with Σ_i R_i(t) < 1, all jobs active at the start of t
// are finished during t.
func refIsNonWasting(r *refResult) bool {
	for t := 0; t < r.Steps(); t++ {
		if numeric.Geq(r.Schedule().StepTotal(t), 1) {
			continue
		}
		for i := 0; i < r.NumProcessors(); i++ {
			if r.Active(t, i) && !r.FinishedJobDuring(t, i) {
				return false
			}
		}
	}
	return true
}

// IsProgressive implements Definition 3: among all jobs that are assigned
// resources during a step, at most one is only partially processed, i.e.
// |{ i | n_i(t) = n_i(t+1) ∧ R_i(t) > 0 }| ≤ 1 for every step t.
func refIsProgressive(r *refResult) bool {
	for t := 0; t < r.Steps(); t++ {
		partial := 0
		for i := 0; i < r.NumProcessors(); i++ {
			if !r.Active(t, i) {
				continue
			}
			if r.Schedule().Share(t, i) > numeric.Eps && !r.FinishedJobDuring(t, i) {
				partial++
			}
		}
		if partial > 1 {
			return false
		}
	}
	return true
}

// IsNested implements Definition 4: there is no time step t and pair of jobs
// (i,j), (i',j') such that S(i,j) < S(i',j') ≤ t < C(i',j'),
// S(i',j') < C(i,j), and (i,j) is running (receiving resource) during step t.
// Intuitively: among partially processed jobs, the one started latest is
// preferred and completed first, so job lifetimes form a laminar (nested)
// family.
func refIsNested(r *refResult) bool {
	type span struct {
		id   core.JobID
		s, c int
	}
	var spans []span
	for i := 0; i < r.NumProcessors(); i++ {
		for j := 0; j < r.Instance().NumJobs(i); j++ {
			s, c := r.StartStep(i, j), r.CompletionStep(i, j)
			if s < 0 || c < 0 {
				// Jobs that never started or never finished cannot witness a
				// violation within the executed horizon.
				continue
			}
			spans = append(spans, span{id: core.JobID{Proc: i, Pos: j}, s: s, c: c})
		}
	}
	running := func(id core.JobID, t int) bool {
		// A job is "running" in step t if it is the active job of its
		// processor and receives a positive share (or is a zero-requirement
		// job making progress).
		j, ok := r.ActiveJob(t, id.Proc)
		if !ok || j != id.Pos {
			return false
		}
		return r.Progressed(t, id.Proc)
	}
	for _, a := range spans { // candidate (i,j)
		for _, b := range spans { // candidate (i',j')
			if a.id == b.id {
				continue
			}
			if !(a.s < b.s && b.s < a.c) {
				continue
			}
			for t := b.s; t < b.c; t++ {
				if t >= a.s && running(a.id, t) {
					return false
				}
			}
		}
	}
	return true
}

// IsBalanced implements Definition 5: whenever a processor i finishes a job
// during step t, every processor i' with n_{i'}(t) > n_i(t) also finishes a
// job during step t.
func refIsBalanced(r *refResult) bool {
	for t := 0; t < r.Steps(); t++ {
		for i := 0; i < r.NumProcessors(); i++ {
			if !r.FinishedJobDuring(t, i) {
				continue
			}
			for k := 0; k < r.NumProcessors(); k++ {
				if r.RemainingJobs(t, k) > r.RemainingJobs(t, i) && !r.FinishedJobDuring(t, k) {
					return false
				}
			}
		}
	}
	return true
}

// CheckProposition1 verifies both invariants of Proposition 1 for a balanced
// schedule: for all processors i1, i2 and steps t,
//
//	(a) n_{i1} ≥ n_{i2}  ⇒  n_{i1}(t) ≥ n_{i2}(t) − 1, and
//	(b) n_{i1} > n_{i2}  ⇒  n_{i1}(t) ≤ n_{i2}(t) + n_{i1} − n_{i2}.
//
// It returns a descriptive error for the first violated invariant, or nil.
// The proposition only holds for balanced schedules; callers typically check
// IsBalanced first.
func refCheckProposition1(r *refResult) error {
	m := r.NumProcessors()
	for t := 0; t <= r.Steps(); t++ {
		for i1 := 0; i1 < m; i1++ {
			for i2 := 0; i2 < m; i2++ {
				n1, n2 := r.Instance().NumJobs(i1), r.Instance().NumJobs(i2)
				r1, r2 := r.Instance().NumJobs(i1)-r.JobsDone(t, i1), r.Instance().NumJobs(i2)-r.JobsDone(t, i2)
				if n1 >= n2 && !(r1 >= r2-1) {
					return fmt.Errorf("core: Proposition 1(a) violated at t=%d for processors %d,%d: n_%d(t)=%d < n_%d(t)-1=%d",
						t+1, i1+1, i2+1, i1+1, r1, i2+1, r2-1)
				}
				if n1 > n2 && !(r1 <= r2+n1-n2) {
					return fmt.Errorf("core: Proposition 1(b) violated at t=%d for processors %d,%d: n_%d(t)=%d > %d",
						t+1, i1+1, i2+1, i1+1, r1, r2+n1-n2)
				}
			}
		}
	}
	return nil
}

// CheckProposition2 verifies Proposition 2 for a balanced schedule: if job
// (i,j) is active at step t and it is not the last job of processor i
// (n_i(t) > 1), then every processor in M_j (those with at least j jobs) is
// active at step t. Job indices in the proposition are one-based; the
// zero-based code converts accordingly.
func refCheckProposition2(r *refResult) error {
	for t := 0; t < r.Steps(); t++ {
		for i := 0; i < r.NumProcessors(); i++ {
			j, ok := r.ActiveJob(t, i)
			if !ok || r.RemainingJobs(t, i) <= 1 {
				continue
			}
			for _, other := range r.Instance().ProcsWithAtLeast(j + 1) {
				if !r.Active(t, other) {
					return fmt.Errorf("core: Proposition 2 violated at t=%d: job (%d,%d) active with n_%d(t)>1 but processor %d idle",
						t+1, i+1, j+1, i+1, other+1)
				}
			}
		}
	}
	return nil
}

// Builder incrementally constructs a schedule for an instance while tracking
// the execution state (active job and remaining work per processor). It
// mirrors the semantics of Execute exactly, so a schedule assembled through a
// Builder replays to the same trajectory. All scheduling algorithms in this
// repository construct their output through a Builder rather than
// manipulating allocation matrices directly.
type refBuilder struct {
	inst     *core.Instance
	sched    *core.Schedule
	next     []int     // first unfinished job per processor
	remWork  []float64 // remaining work of the active job (resource units)
	remVol   []float64 // remaining volume of the active job (volume units)
	finished int       // number of fully finished processors
}

// NewBuilder returns a Builder for the given instance positioned at time
// step one with no resource assigned yet.
func newRefBuilder(inst *core.Instance) *refBuilder {
	m := inst.NumProcessors()
	b := &refBuilder{
		inst:    inst,
		sched:   &core.Schedule{},
		next:    make([]int, m),
		remWork: make([]float64, m),
		remVol:  make([]float64, m),
	}
	for i := 0; i < m; i++ {
		if inst.NumJobs(i) > 0 {
			b.remWork[i] = inst.Job(i, 0).Work()
			b.remVol[i] = inst.Job(i, 0).Size
		} else {
			b.finished++
		}
	}
	return b
}

// Instance returns the instance the builder schedules.
func (b *refBuilder) Instance() *core.Instance { return b.inst }

// NumProcessors returns the instance's processor count.
func (b *refBuilder) NumProcessors() int { return b.inst.NumProcessors() }

// Step returns the zero-based index of the time step that would be appended
// next (equivalently, the number of steps already built).
func (b *refBuilder) Step() int { return b.sched.Steps() }

// Done reports whether every job of every processor has been completed.
func (b *refBuilder) Done() bool { return b.finished == b.inst.NumProcessors() }

// Active reports whether processor i still has unfinished jobs.
func (b *refBuilder) Active(i int) bool { return b.next[i] < b.inst.NumJobs(i) }

// ActiveJob returns the index of the first unfinished job of processor i, or
// -1 if the processor is done.
func (b *refBuilder) ActiveJob(i int) int {
	if !b.Active(i) {
		return -1
	}
	return b.next[i]
}

// RemainingJobs returns n_i(t) for the current step t.
func (b *refBuilder) RemainingJobs(i int) int { return b.inst.NumJobs(i) - b.next[i] }

// RemainingWork returns the remaining work (resource units still to be spent)
// of processor i's active job; zero if the processor is done.
func (b *refBuilder) RemainingWork(i int) float64 { return b.remWork[i] }

// RemainingVolume returns the remaining processing volume of processor i's
// active job; zero if the processor is done.
func (b *refBuilder) RemainingVolume(i int) float64 { return b.remVol[i] }

// DemandThisStep returns the share of the resource processor i can usefully
// consume during the next step: min(r_ij, remaining work) for the active job,
// or 0 if the processor is idle. Assigning more than this is wasted.
func (b *refBuilder) DemandThisStep(i int) float64 {
	if !b.Active(i) {
		return 0
	}
	req := b.inst.Job(i, b.next[i]).Req
	if req <= numeric.Eps {
		return 0
	}
	return math.Min(req, b.remWork[i])
}

// TotalDemandThisStep returns the sum of DemandThisStep over all processors.
func (b *refBuilder) TotalDemandThisStep() float64 {
	var k numeric.KahanAdder
	for i := 0; i < b.NumProcessors(); i++ {
		k.Add(b.DemandThisStep(i))
	}
	return k.Sum()
}

// AppendStep appends one time step assigning shares[i] to processor i and
// advances the internal execution state. Shares beyond the instance's
// processor count are ignored; a nil or short slice is padded with zeros.
func (b *refBuilder) AppendStep(shares []float64) {
	m := b.NumProcessors()
	row := make([]float64, m)
	for i := 0; i < m && i < len(shares); i++ {
		row[i] = shares[i]
	}
	b.sched.Alloc = append(b.sched.Alloc, row)

	for i := 0; i < m; i++ {
		if !b.Active(i) {
			continue
		}
		job := b.inst.Job(i, b.next[i])
		if job.Req <= numeric.Eps {
			b.remVol[i] -= 1
			b.remWork[i] = 0
			if b.remVol[i] <= numeric.Eps {
				b.advance(i)
			}
			continue
		}
		useful := math.Min(row[i], job.Req)
		useful = math.Min(useful, b.remWork[i])
		b.remWork[i] -= useful
		b.remVol[i] -= useful / job.Req
		if b.remWork[i] <= numeric.Eps {
			b.advance(i)
		}
	}
}

func (b *refBuilder) advance(i int) {
	b.next[i]++
	if b.next[i] < b.inst.NumJobs(i) {
		b.remWork[i] = b.inst.Job(i, b.next[i]).Work()
		b.remVol[i] = b.inst.Job(i, b.next[i]).Size
	} else {
		b.remWork[i] = 0
		b.remVol[i] = 0
		b.finished++
	}
}

// Schedule finalises and returns the constructed schedule. The builder can
// continue to be used afterwards; the returned schedule is a snapshot copy.
func (b *refBuilder) Schedule() *core.Schedule { return b.sched.Clone() }

// BuildGreedy appends steps until all jobs are finished (or the safety cap of
// steps is exceeded), each step calling pick to obtain the allocation. It is
// a convenience loop shared by the priority-driven algorithms. The safety cap
// guards against allocation functions that assign no useful resource; it is
// generous (total volume steps plus total work steps plus slack).
func (b *refBuilder) BuildGreedy(pick func(b *refBuilder) []float64) *core.Schedule {
	cap := b.safetyCap()
	for !b.Done() && b.Step() < cap {
		b.AppendStep(pick(b))
	}
	return b.Schedule()
}

func (b *refBuilder) safetyCap() int {
	steps := 0
	for i := 0; i < b.inst.NumProcessors(); i++ {
		for _, j := range b.inst.Jobs(i) {
			steps += j.Steps()
		}
	}
	return steps + int(math.Ceil(b.inst.TotalWork())) + b.inst.TotalJobs() + 16
}
