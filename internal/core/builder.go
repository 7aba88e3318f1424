package core

import (
	"math"
	"slices"

	"crsharing/internal/numeric"
)

// Builder incrementally constructs a schedule for an instance while tracking
// the execution state (active job and remaining work per processor). It
// mirrors the semantics of Execute exactly, so a schedule assembled through a
// Builder replays to the same trajectory. All scheduling algorithms in this
// repository construct their output through a Builder rather than
// manipulating allocation matrices directly.
type Builder struct {
	inst     *Instance
	sched    Schedule
	next     []int     // first unfinished job per processor
	remWork  []float64 // remaining work of the active job (resource units)
	remVol   []float64 // remaining volume of the active job (volume units)
	finished int       // number of fully finished processors
	// slab is the free tail the next rows of sched are carved from. Once
	// used up it is replaced by one with as many rows as were built so far
	// (at least 8); the rows already carved keep the old one.
	slab []float64
	// reuse is the slab Reset carves the next build's rows from: one slab
	// as large as the largest build so far.
	reuse []float64
}

// NewBuilder returns a Builder for the given instance positioned at time
// step one with no resource assigned yet.
func NewBuilder(inst *Instance) *Builder {
	b := new(Builder)
	b.Reset(inst)
	return b
}

// Reset positions the builder at time step one of inst with no resource
// assigned yet, as NewBuilder does, but keeps its buffers: once a builder
// has built its largest schedule, further builds allocate nothing. Reset
// overwrites the rows the builder built before (see Rows).
func (b *Builder) Reset(inst *Instance) {
	m := inst.NumProcessors()
	if built := len(b.sched.Alloc) * len(b.next); built > 0 {
		if cap(b.reuse) < built {
			b.reuse = make([]float64, built)
		}
		b.slab = b.reuse[:cap(b.reuse)]
	}
	b.sched.Alloc = b.sched.Alloc[:0]
	b.inst = inst
	b.next = slices.Grow(b.next[:0], m)[:m]
	b.remWork = slices.Grow(b.remWork[:0], m)[:m]
	b.remVol = slices.Grow(b.remVol[:0], m)[:m]
	b.finished = 0
	for i := 0; i < m; i++ {
		b.next[i] = 0
		if inst.NumJobs(i) > 0 {
			b.remWork[i] = inst.Job(i, 0).Work()
			b.remVol[i] = inst.Job(i, 0).Size
		} else {
			b.remWork[i] = 0
			b.remVol[i] = 0
			b.finished++
		}
	}
}

// Instance returns the instance the builder schedules.
func (b *Builder) Instance() *Instance { return b.inst }

// NumProcessors returns the instance's processor count.
func (b *Builder) NumProcessors() int { return b.inst.NumProcessors() }

// Step returns the zero-based index of the time step that would be appended
// next (equivalently, the number of steps already built).
func (b *Builder) Step() int { return b.sched.Steps() }

// Done reports whether every job of every processor has been completed.
func (b *Builder) Done() bool { return b.finished == b.inst.NumProcessors() }

// Active reports whether processor i still has unfinished jobs.
func (b *Builder) Active(i int) bool { return b.next[i] < b.inst.NumJobs(i) }

// ActiveJob returns the index of the first unfinished job of processor i, or
// -1 if the processor is done.
func (b *Builder) ActiveJob(i int) int {
	if !b.Active(i) {
		return -1
	}
	return b.next[i]
}

// RemainingJobs returns n_i(t) for the current step t.
func (b *Builder) RemainingJobs(i int) int { return b.inst.NumJobs(i) - b.next[i] }

// RemainingWork returns the remaining work (resource units still to be spent)
// of processor i's active job; zero if the processor is done.
func (b *Builder) RemainingWork(i int) float64 { return b.remWork[i] }

// RemainingVolume returns the remaining processing volume of processor i's
// active job; zero if the processor is done.
func (b *Builder) RemainingVolume(i int) float64 { return b.remVol[i] }

// DemandThisStep returns the share of the resource processor i can usefully
// consume during the next step: min(r_ij, remaining work) for the active job,
// or 0 if the processor is idle or the job's requirement is at most
// numeric.Eps (Execute runs such a job on no share). Assigning more than
// this is wasted.
func (b *Builder) DemandThisStep(i int) float64 {
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
func (b *Builder) TotalDemandThisStep() float64 {
	var k numeric.KahanAdder
	for i := 0; i < b.NumProcessors(); i++ {
		k.Add(b.DemandThisStep(i))
	}
	return k.Sum()
}

// AppendStep appends one time step assigning shares[i] to processor i and
// advances the internal execution state. Shares beyond the instance's
// processor count are ignored; a nil or short slice is padded with zeros.
// The builder copies shares, so the caller may reuse the slice.
func (b *Builder) AppendStep(shares []float64) {
	m := b.NumProcessors()
	if len(b.slab) < m {
		rows := max(b.Step(), 8)
		b.slab = make([]float64, rows*m)
		b.sched.Alloc = slices.Grow(b.sched.Alloc, rows)
	}
	row := b.slab[:m:m]
	b.slab = b.slab[m:]
	clear(row[copy(row, shares):])
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

func (b *Builder) advance(i int) {
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
// continue to be used afterwards; the returned schedule is a snapshot copy,
// sized exactly to the steps built, because the builder's next Reset
// overwrites its own rows and they are carved from slabs with room to
// spare. (The memo cache copies an answer's cells into its own slab, so a
// schedule pins the builder's slab only while a caller holds it.)
func (b *Builder) Schedule() *Schedule { return b.sched.Clone() }

// Rows returns the allocation rows built so far without copying them. They
// stay the builder's: the next Reset overwrites them.
func (b *Builder) Rows() [][]float64 { return b.sched.Alloc }

// BuildGreedy appends steps until all jobs are finished (or the safety cap of
// steps is exceeded), each step calling pick to obtain the allocation, and
// returns a copy of the schedule (see Schedule). It is a convenience loop
// shared by the priority-driven algorithms.
func (b *Builder) BuildGreedy(pick func(b *Builder) []float64) *Schedule {
	b.Run(pick)
	return b.Schedule()
}

// Run is BuildGreedy without the copy: the steps stay in the builder (see
// Rows). The safety cap guards against allocation functions that assign no
// useful resource; it is generous (total volume steps plus total work steps
// plus slack).
func (b *Builder) Run(pick func(b *Builder) []float64) {
	cap := b.safetyCap()
	for !b.Done() && b.Step() < cap {
		b.AppendStep(pick(b))
	}
}

func (b *Builder) safetyCap() int {
	steps := 0
	for i := 0; i < b.inst.NumProcessors(); i++ {
		for _, j := range b.inst.Jobs(i) {
			steps += j.Steps()
		}
	}
	return steps + int(math.Ceil(b.inst.TotalWork())) + b.inst.TotalJobs() + 16
}
