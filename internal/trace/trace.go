// Package trace generates synthetic workload traces for the many-core
// simulator, and converts a CRSharing instance of package core into a
// simulator workload (FromInstance). The opposite direction, a workload's
// instance, belongs to the simulator itself (manycore.Workload.Instance),
// since that is the instance it simulates.
//
// The paper motivates its model with I/O-intensive scientific computing on
// many-core machines and with virtual machines sharing a host resource, but
// it evaluates neither on real traces (it is a theory paper). This package
// substitutes seeded synthetic traces whose phase structure matches those
// descriptions: alternating I/O and compute phases for scientific jobs,
// bursty mixed phases for VM-style consolidation. Only the distribution of
// per-phase bandwidth requirements matters for the scheduling behaviour under
// study, so the substitution preserves the experiments' meaning.
package trace

import (
	"fmt"
	"math/rand"

	"crsharing/internal/core"
	"crsharing/internal/manycore"
)

// ScientificConfig parameterises the scientific-computing trace generator.
type ScientificConfig struct {
	// Tasks is the number of tasks to generate.
	Tasks int
	// PhasesPerTask is the number of phases per task (alternating I/O and
	// compute, starting with I/O).
	PhasesPerTask int
	// IOBandwidthLo/Hi bound the bandwidth requirement of I/O phases.
	IOBandwidthLo, IOBandwidthHi float64
	// ComputeBandwidthHi bounds the (small) bandwidth requirement of compute
	// phases; the lower bound is zero.
	ComputeBandwidthHi float64
	// VolumeLo/Hi bound per-phase volumes (ticks at full speed).
	VolumeLo, VolumeHi float64
}

// DefaultScientificConfig returns the configuration used by the experiments:
// bandwidth-hungry scan phases alternating with light compute phases.
func DefaultScientificConfig(tasks int) ScientificConfig {
	return ScientificConfig{
		Tasks:              tasks,
		PhasesPerTask:      6,
		IOBandwidthLo:      0.35,
		IOBandwidthHi:      0.95,
		ComputeBandwidthHi: 0.08,
		VolumeLo:           1,
		VolumeHi:           4,
	}
}

// Validate checks the configuration.
func (c ScientificConfig) Validate() error {
	if c.Tasks < 1 || c.PhasesPerTask < 1 {
		return fmt.Errorf("trace: need at least one task and one phase")
	}
	if c.IOBandwidthLo < 0 || c.IOBandwidthHi > 1 || c.IOBandwidthLo > c.IOBandwidthHi {
		return fmt.Errorf("trace: invalid I/O bandwidth range [%v, %v]", c.IOBandwidthLo, c.IOBandwidthHi)
	}
	if c.ComputeBandwidthHi < 0 || c.ComputeBandwidthHi > 1 {
		return fmt.Errorf("trace: invalid compute bandwidth bound %v", c.ComputeBandwidthHi)
	}
	if c.VolumeLo <= 0 || c.VolumeLo > c.VolumeHi {
		return fmt.Errorf("trace: invalid volume range [%v, %v]", c.VolumeLo, c.VolumeHi)
	}
	return nil
}

// Scientific generates tasks that alternate bandwidth-hungry I/O phases
// (scan, checkpoint, input staging) with compute phases, the structure of the
// I/O-intensive scientific workloads the paper's introduction describes.
func Scientific(rng *rand.Rand, cfg ScientificConfig) ([]*manycore.Task, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tasks := make([]*manycore.Task, cfg.Tasks)
	for i := range tasks {
		phases := make([]manycore.Phase, cfg.PhasesPerTask)
		for p := range phases {
			vol := cfg.VolumeLo + rng.Float64()*(cfg.VolumeHi-cfg.VolumeLo)
			if p%2 == 0 {
				phases[p] = manycore.Phase{
					Kind:      manycore.PhaseIO,
					Bandwidth: cfg.IOBandwidthLo + rng.Float64()*(cfg.IOBandwidthHi-cfg.IOBandwidthLo),
					Volume:    vol,
				}
			} else {
				phases[p] = manycore.Phase{
					Kind:      manycore.PhaseCompute,
					Bandwidth: rng.Float64() * cfg.ComputeBandwidthHi,
					Volume:    vol,
				}
			}
		}
		tasks[i] = manycore.NewTask(fmt.Sprintf("sci-%03d", i), phases...)
	}
	return tasks, nil
}

// VMConfig parameterises the virtual-machine consolidation trace generator.
type VMConfig struct {
	// VMs is the number of virtual machines (tasks).
	VMs int
	// PhasesPerVM is the number of phases per VM.
	PhasesPerVM int
	// BurstProbability is the probability that a phase is a bandwidth burst.
	BurstProbability float64
	// BurstLo/Hi bound burst-phase bandwidth requirements.
	BurstLo, BurstHi float64
	// BackgroundHi bounds background-phase bandwidth requirements.
	BackgroundHi float64
	// VolumeLo/Hi bound per-phase volumes.
	VolumeLo, VolumeHi float64
}

// DefaultVMConfig returns the configuration used by the experiments.
func DefaultVMConfig(vms int) VMConfig {
	return VMConfig{
		VMs:              vms,
		PhasesPerVM:      8,
		BurstProbability: 0.3,
		BurstLo:          0.5,
		BurstHi:          1.0,
		BackgroundHi:     0.2,
		VolumeLo:         0.5,
		VolumeHi:         3,
	}
}

// Validate checks the configuration.
func (c VMConfig) Validate() error {
	if c.VMs < 1 || c.PhasesPerVM < 1 {
		return fmt.Errorf("trace: need at least one VM and one phase")
	}
	if c.BurstProbability < 0 || c.BurstProbability > 1 {
		return fmt.Errorf("trace: burst probability %v outside [0,1]", c.BurstProbability)
	}
	if c.BurstLo < 0 || c.BurstHi > 1 || c.BurstLo > c.BurstHi {
		return fmt.Errorf("trace: invalid burst range [%v, %v]", c.BurstLo, c.BurstHi)
	}
	if c.BackgroundHi < 0 || c.BackgroundHi > 1 {
		return fmt.Errorf("trace: invalid background bound %v", c.BackgroundHi)
	}
	if c.VolumeLo <= 0 || c.VolumeLo > c.VolumeHi {
		return fmt.Errorf("trace: invalid volume range [%v, %v]", c.VolumeLo, c.VolumeHi)
	}
	return nil
}

// VMs generates tasks modelling virtual machines that mostly run background
// load but occasionally burst on the shared resource (the host-level
// CPU/memory/I/O sharing scenario of the paper's introduction).
func VMs(rng *rand.Rand, cfg VMConfig) ([]*manycore.Task, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tasks := make([]*manycore.Task, cfg.VMs)
	for i := range tasks {
		phases := make([]manycore.Phase, cfg.PhasesPerVM)
		for p := range phases {
			vol := cfg.VolumeLo + rng.Float64()*(cfg.VolumeHi-cfg.VolumeLo)
			if rng.Float64() < cfg.BurstProbability {
				phases[p] = manycore.Phase{
					Kind:      manycore.PhaseIO,
					Bandwidth: cfg.BurstLo + rng.Float64()*(cfg.BurstHi-cfg.BurstLo),
					Volume:    vol,
				}
			} else {
				phases[p] = manycore.Phase{
					Kind:      manycore.PhaseCompute,
					Bandwidth: rng.Float64() * cfg.BackgroundHi,
					Volume:    vol,
				}
			}
		}
		tasks[i] = manycore.NewTask(fmt.Sprintf("vm-%03d", i), phases...)
	}
	return tasks, nil
}

// UnitPhases generates tasks whose phases all have unit volume, the regime in
// which the simulator corresponds exactly to the paper's unit-size CRSharing
// model (one phase = one job).
func UnitPhases(rng *rand.Rand, tasks, phases int, lo, hi float64) []*manycore.Task {
	out := make([]*manycore.Task, tasks)
	for i := range out {
		ps := make([]manycore.Phase, phases)
		for p := range ps {
			ps[p] = manycore.Phase{
				Kind:      manycore.PhaseIO,
				Bandwidth: lo + rng.Float64()*(hi-lo),
				Volume:    1,
			}
		}
		out[i] = manycore.NewTask(fmt.Sprintf("unit-%03d", i), ps...)
	}
	return out
}

// FromInstance converts a CRSharing instance into a one-task-per-core
// workload, the inverse of manycore.Workload.Instance: job (i,j) becomes
// phase j of core i's task with bandwidth r_ij and volume p_ij.
func FromInstance(inst *core.Instance) (*manycore.Workload, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	w := manycore.NewWorkload(inst.NumProcessors())
	for i := 0; i < inst.NumProcessors(); i++ {
		if inst.NumJobs(i) == 0 {
			continue
		}
		phases := make([]manycore.Phase, inst.NumJobs(i))
		for j := range phases {
			job := inst.Job(i, j)
			kind := manycore.PhaseIO
			if job.Req < 0.25 {
				kind = manycore.PhaseCompute
			}
			phases[j] = manycore.Phase{Kind: kind, Bandwidth: job.Req, Volume: job.Size}
		}
		w.Assign(i, manycore.NewTask(fmt.Sprintf("proc-%02d", i), phases...))
	}
	return w, nil
}
