package manycore

import (
	"fmt"
	"strings"
)

// TickRecord captures the observable state of one simulation tick: the shares
// the policy granted and the progress every core made.
type TickRecord struct {
	Tick int
	// Share[c] is the bandwidth granted to core c.
	Share []float64
	// Progress[c] is the volume progress core c made during the tick.
	Progress []float64
	// Phase[c] is the phase index core c worked on (-1 when idle).
	Phase []int
	// Task[c] is the name of the task core c worked on ("" when idle).
	Task []string
}

// Recorder collects per-tick records during a simulation run. Pass it to
// Run; a nil recorder disables recording (the default, to keep long
// simulations from allocating a record per tick).
type Recorder struct {
	Ticks []TickRecord
	// MaxTicks caps the number of recorded ticks (0 = unlimited); once the
	// cap is reached further ticks are counted but not stored.
	MaxTicks int
	// Dropped counts ticks that were not stored because of MaxTicks.
	Dropped int
}

// NewRecorder returns a recorder storing at most maxTicks ticks (0 =
// unlimited).
func NewRecorder(maxTicks int) *Recorder { return &Recorder{MaxTicks: maxTicks} }

func (r *Recorder) record(rec TickRecord) {
	if r.MaxTicks > 0 && len(r.Ticks) >= r.MaxTicks {
		r.Dropped++
		return
	}
	r.Ticks = append(r.Ticks, rec)
}

// Timeline renders the recorded ticks as an ASCII chart: one row per core,
// one column per tick, each cell showing the fraction of full speed the core
// achieved ('#' ≥ 90%, '+' ≥ 50%, '.' > 0, ' ' idle, '!' starved while
// active). It is the simulator's analogue of the Gantt rendering for model
// schedules.
func (r *Recorder) Timeline() string {
	if len(r.Ticks) == 0 {
		return "(no ticks recorded)\n"
	}
	cores := len(r.Ticks[0].Share)
	var b strings.Builder
	for c := 0; c < cores; c++ {
		fmt.Fprintf(&b, "core %2d |", c)
		for _, tick := range r.Ticks {
			if c >= len(tick.Progress) {
				b.WriteByte(' ')
				continue
			}
			switch {
			case tick.Phase[c] < 0:
				b.WriteByte(' ')
			case tick.Progress[c] >= 0.9:
				b.WriteByte('#')
			case tick.Progress[c] >= 0.5:
				b.WriteByte('+')
			case tick.Progress[c] > 1e-9:
				b.WriteByte('.')
			default:
				b.WriteByte('!')
			}
		}
		b.WriteString("|\n")
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "(%d further ticks not recorded)\n", r.Dropped)
	}
	return b.String()
}

// BandwidthCSV renders the recorded per-core shares as CSV (tick, core0,
// core1, ...), convenient for external plotting.
func (r *Recorder) BandwidthCSV() string {
	if len(r.Ticks) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("tick")
	for c := range r.Ticks[0].Share {
		fmt.Fprintf(&b, ",core%d", c)
	}
	b.WriteString("\n")
	for _, tick := range r.Ticks {
		fmt.Fprintf(&b, "%d", tick.Tick+1)
		for _, s := range tick.Share {
			fmt.Fprintf(&b, ",%.4f", s)
		}
		b.WriteString("\n")
	}
	return b.String()
}
