// Package core implements the CRSharing model from "Scheduling Shared
// Continuous Resources on Many-Cores" (Althaus et al., SPAA 2014 / Journal of
// Scheduling): m identical processors share a single continuously divisible
// resource. Each processor owns a fixed sequence of jobs; job (i,j) has a
// resource requirement r_ij ∈ [0,1] and a processing volume (size) p_ij > 0.
// In every discrete time step the scheduler splits the resource among the
// processors (Σ_i R_i(t) ≤ 1). A job that receives an x-fraction of its
// requirement progresses at an x-fraction of full speed; granting more than
// the requirement does not help. The objective is to minimise the makespan.
//
// The package provides the instance and schedule types, the execution engine
// realising the progress law (equations (1)/(2) of the paper), the schedule
// properties of Section 4 (non-wasting, progressive, nested, balanced), the
// Lemma-1 canonicalisation, and the lower bounds used throughout the paper's
// analysis.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"crsharing/internal/numeric"
)

// Job is a single phase of work on one processor. Req is the resource
// requirement r_ij ∈ [0,1]: the share of the resource needed to process one
// unit of volume in one time step. Size is the processing volume p_ij > 0;
// unit-size jobs (the case analysed in the paper) have Size == 1.
type Job struct {
	Req  float64 `json:"req"`
	Size float64 `json:"size"`
}

// UnitJob returns a unit-size job with the given resource requirement.
func UnitJob(req float64) Job { return Job{Req: req, Size: 1} }

// Work returns the job's total work p̃_ij = r_ij · p_ij in the alternative
// (variable-speed) model interpretation of Section 3. It is the amount of
// resource that must be spent on the job before it completes.
func (j Job) Work() float64 { return j.Req * j.Size }

// Steps returns the minimum number of time steps the job occupies its
// processor, i.e. the number of steps needed when the job always receives its
// full requirement: ⌈Size⌉ (at full speed one unit of volume completes per
// step). Jobs with Req == 0 also progress one unit of volume per step.
func (j Job) Steps() int {
	if j.Size <= 0 {
		return 0
	}
	return int(math.Ceil(j.Size - numeric.Eps))
}

// Validate reports whether the job's parameters lie in the model's domain.
func (j Job) Validate() error {
	if math.IsNaN(j.Req) || math.IsInf(j.Req, 0) {
		return fmt.Errorf("core: job requirement %v is not finite", j.Req)
	}
	if math.IsNaN(j.Size) || math.IsInf(j.Size, 0) {
		return fmt.Errorf("core: job size %v is not finite", j.Size)
	}
	if j.Req < -numeric.Eps || j.Req > 1+numeric.Eps {
		return fmt.Errorf("core: job requirement %v outside [0,1]", j.Req)
	}
	if j.Size <= 0 {
		return fmt.Errorf("core: job size %v must be positive", j.Size)
	}
	return nil
}

// JobID identifies job (i,j): the j-th job on processor i. Both components
// are zero-based in code; the paper's (i,j) notation is one-based.
type JobID struct {
	Proc int `json:"proc"`
	Pos  int `json:"pos"`
}

// String renders the identifier in the paper's one-based (i, j) notation.
func (id JobID) String() string { return fmt.Sprintf("(%d,%d)", id.Proc+1, id.Pos+1) }

// Instance is a CRSharing problem instance: one job sequence per processor.
// The zero value is an empty instance with no processors. Instances are
// treated as immutable once built: the solvers, the memo cache and the
// per-instance bound memo below all rely on Procs not changing afterwards.
type Instance struct {
	// Procs[i] is the ordered job sequence of processor i.
	Procs [][]Job `json:"procs"`

	// bounds memoises LowerBounds: branch-and-bound seeding, ApproxRatio and
	// solve telemetry all ask for the same bounds of the same instance, so
	// the O(total jobs) sweep runs once. The atomic pointer keeps concurrent
	// first calls safe (they may both compute, the stores are idempotent).
	bounds atomic.Pointer[Bounds]

	// fp memoises Fingerprint the same way: the serving layer hashes every
	// request once for the memo cache, again for the response, and once per
	// batch shard, all over the same immutable instance.
	fp atomic.Pointer[Fingerprint]
}

// NewInstance builds an instance from per-processor requirement sequences of
// unit-size jobs. It is the most convenient constructor for the unit-size
// case studied in the paper.
func NewInstance(reqs ...[]float64) *Instance {
	inst := &Instance{Procs: make([][]Job, len(reqs))}
	for i, rs := range reqs {
		inst.Procs[i] = make([]Job, len(rs))
		for j, r := range rs {
			inst.Procs[i][j] = UnitJob(r)
		}
	}
	return inst
}

// NewSizedInstance builds an instance with explicit jobs per processor.
func NewSizedInstance(procs ...[]Job) *Instance {
	inst := &Instance{Procs: make([][]Job, len(procs))}
	for i, js := range procs {
		inst.Procs[i] = append([]Job(nil), js...)
	}
	return inst
}

// NumProcessors returns m, the number of processors.
func (in *Instance) NumProcessors() int { return len(in.Procs) }

// NumJobs returns n_i, the number of jobs on processor i.
func (in *Instance) NumJobs(i int) int { return len(in.Procs[i]) }

// TotalJobs returns Σ_i n_i.
func (in *Instance) TotalJobs() int {
	total := 0
	for _, js := range in.Procs {
		total += len(js)
	}
	return total
}

// MaxJobs returns n = max_i n_i, the maximum number of jobs on any processor.
func (in *Instance) MaxJobs() int {
	n := 0
	for _, js := range in.Procs {
		if len(js) > n {
			n = len(js)
		}
	}
	return n
}

// Job returns job (i,j) (zero-based).
func (in *Instance) Job(i, j int) Job { return in.Procs[i][j] }

// Jobs returns the job sequence of processor i (the caller must not modify
// the returned slice).
func (in *Instance) Jobs(i int) []Job { return in.Procs[i] }

// TotalWork returns Σ_ij r_ij · p_ij, the aggregate work of the instance in
// the alternative model interpretation. By Observation 1 it is a lower bound
// on the makespan of any feasible schedule.
func (in *Instance) TotalWork() float64 {
	var k numeric.KahanAdder
	for _, js := range in.Procs {
		for _, j := range js {
			k.Add(j.Work())
		}
	}
	return k.Sum()
}

// IsUnitSize reports whether every job has size exactly 1 (the restriction
// under which all of the paper's positive results are stated).
func (in *Instance) IsUnitSize() bool {
	for _, js := range in.Procs {
		for _, j := range js {
			if !numeric.Eq(j.Size, 1) {
				return false
			}
		}
	}
	return true
}

// ProcsWithAtLeast returns M_j = { i | n_i ≥ j } for a one-based job index j,
// i.e. the processors that have at least j jobs (Section 3 notation).
func (in *Instance) ProcsWithAtLeast(j int) []int {
	var procs []int
	for i, js := range in.Procs {
		if len(js) >= j {
			procs = append(procs, i)
		}
	}
	return procs
}

// Validate checks that the instance lies in the model's domain: every job has
// a requirement in [0,1] and a positive size.
func (in *Instance) Validate() error {
	if in == nil {
		return errors.New("core: nil instance")
	}
	for i, js := range in.Procs {
		for j, job := range js {
			if err := job.Validate(); err != nil {
				return fmt.Errorf("job (%d,%d): %w", i+1, j+1, err)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{Procs: make([][]Job, len(in.Procs))}
	for i, js := range in.Procs {
		out.Procs[i] = append([]Job(nil), js...)
	}
	return out
}

// Equal reports whether two instances have identical processors and jobs
// (exact float comparison; intended for tests and deduplication).
func (in *Instance) Equal(other *Instance) bool {
	if in.NumProcessors() != other.NumProcessors() {
		return false
	}
	for i := range in.Procs {
		if len(in.Procs[i]) != len(other.Procs[i]) {
			return false
		}
		for j := range in.Procs[i] {
			if in.Procs[i][j] != other.Procs[i][j] {
				return false
			}
		}
	}
	return true
}

// String renders a compact human-readable description of the instance, one
// processor per line with requirements in percent (the paper's figures use
// the same convention).
func (in *Instance) String() string {
	s := fmt.Sprintf("CRSharing instance: m=%d, jobs=%d\n", in.NumProcessors(), in.TotalJobs())
	for i, js := range in.Procs {
		s += fmt.Sprintf("  p%d:", i+1)
		for _, j := range js {
			if numeric.Eq(j.Size, 1) {
				s += fmt.Sprintf(" %3.0f", j.Req*100)
			} else {
				s += fmt.Sprintf(" %3.0f(x%.2g)", j.Req*100, j.Size)
			}
		}
		s += "\n"
	}
	return s
}
