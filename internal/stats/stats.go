// Package stats provides the small set of descriptive statistics used by the
// experiment harness, the simulator reports, the engine's /metrics
// histograms and the load reports: means, standard deviations, quantiles,
// min/max, and histograms over fixed upper bounds. It exists so that they
// can summarise distributions without pulling in external dependencies.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	Count  int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	P50    float64
	P90    float64
	P99    float64
}

// Summarize computes the summary of the sample. An empty sample yields a zero
// summary with Count 0. The sample is copied and sorted exactly once; the
// quantiles (and min/max) are read off the shared sorted copy.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   quantileSorted(sorted, 0.50),
		P90:   quantileSorted(sorted, 0.90),
		P99:   quantileSorted(sorted, 0.99),
	}
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	var sq float64
	for _, x := range sorted {
		d := x - s.Mean
		sq += d * d
	}
	if len(sorted) > 1 {
		s.StdDev = math.Sqrt(sq / float64(len(sorted)-1))
	}
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f p50=%.4f p90=%.4f p99=%.4f max=%.4f",
		s.Count, s.Mean, s.StdDev, s.Min, s.P50, s.P90, s.P99, s.Max)
}

// Mean returns the arithmetic mean (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum (0 for an empty sample).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	return max
}

// Min returns the minimum (0 for an empty sample).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min := xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
	}
	return min
}

// Quantile returns the q-quantile (q in [0,1]) using linear interpolation
// between closest ranks. The input need not be sorted. To compute several
// quantiles of the same sample use Summarize, which sorts only once.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// quantileSorted is Quantile over an already-sorted non-empty sample.
func quantileSorted(sorted []float64, q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram counts samples against fixed upper bounds, as a Prometheus
// histogram does: Counts[i] holds the samples x with Bounds[i-1] < x ≤
// Bounds[i] (every x ≤ Bounds[0] for i = 0), and the extra slot
// Counts[len(Bounds)] holds the samples above the last bound, so no sample
// is ever dropped. Sum is the sum of every sample. A histogram never
// changes its bounds; histograms with equal bounds merge exactly.
type Histogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
}

// NewHistogram returns an empty histogram over the given upper bounds, which
// it keeps without copying. It panics if bounds is empty or not strictly
// increasing (programming errors).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("stats: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("stats: histogram bounds must increase strictly")
		}
	}
	return &Histogram{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)}
}

// Add records one sample. It allocates nothing.
func (h *Histogram) Add(x float64) {
	h.Counts[sort.SearchFloat64s(h.Bounds, x)]++
	h.Sum += x
}

// BoundsMismatchError reports a Histogram.Merge whose operands do not share
// bounds. Merging such histograms would silently misbin every sample of the
// other run, so the merge refuses instead.
type BoundsMismatchError struct {
	A, B []float64
}

func (e *BoundsMismatchError) Error() string {
	return fmt.Sprintf("stats: histogram bounds mismatch: %s vs %s", boundsString(e.A), boundsString(e.B))
}

// boundsString describes a bound list by its length and range.
func boundsString(b []float64) string {
	if len(b) == 0 {
		return "no bounds"
	}
	return fmt.Sprintf("%d bounds [%g, %g]", len(b), b[0], b[len(b)-1])
}

// Merge folds o into h. Counts and sums add, so merging the histograms of
// disjoint samples equals building one histogram over the pooled samples
// (Sum up to float rounding). The histograms must share their bounds;
// otherwise Merge returns a *BoundsMismatchError and leaves h unchanged.
func (h *Histogram) Merge(o *Histogram) error {
	if !slices.Equal(h.Bounds, o.Bounds) || len(h.Counts) != len(o.Counts) {
		return &BoundsMismatchError{A: h.Bounds, B: o.Bounds}
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Sum += o.Sum
	return nil
}

// Clone returns a copy of the histogram whose counts are its own; the
// bounds, which never change, are shared.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{Bounds: h.Bounds, Counts: slices.Clone(h.Counts), Sum: h.Sum}
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Quantile estimates the q-quantile (q in [0,1]) from the counts with linear
// interpolation inside the selected bucket, so the estimate is within one
// bucket of the exact sample quantile. The first bucket has no lower edge,
// so its mass sits at Bounds[0]; the overflow slot has no upper edge, so its
// mass sits at the last bound. An empty histogram yields 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			if i == 0 || i == len(h.Bounds) {
				return h.Bounds[min(i, len(h.Bounds)-1)]
			}
			frac := (rank - cum) / float64(c)
			return h.Bounds[i-1] + frac*(h.Bounds[i]-h.Bounds[i-1])
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}
