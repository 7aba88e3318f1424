package stats

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownSample(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.Count != 8 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean)
	}
	// Sample standard deviation of this classic example is ~2.138.
	if math.Abs(s.StdDev-2.138089935299395) > 1e-9 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.P50-4.5) > 1e-12 {
		t.Fatalf("median = %v, want 4.5", s.P50)
	}
	if !strings.Contains(s.String(), "mean=5.0000") {
		t.Fatalf("String: %q", s.String())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.String() != "n=0" {
		t.Fatalf("empty summary malformed: %+v", s)
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Min(nil) != 0 || Quantile(nil, 0.5) != 0 {
		t.Fatalf("empty-sample helpers must return 0")
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{3, 1, 2}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 3 {
		t.Fatalf("extreme quantiles wrong")
	}
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 3 {
		t.Fatalf("out-of-range q must clamp")
	}
	if math.Abs(Quantile(xs, 0.5)-2) > 1e-12 {
		t.Fatalf("median of {1,2,3} = %v", Quantile(xs, 0.5))
	}
}

// TestSummarizeMatchesQuantile guards the sort-once fast path in Summarize
// against drifting from the standalone Quantile, min and max helpers, and
// checks the input sample is left unsorted.
func TestSummarizeMatchesQuantile(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		orig := append([]float64(nil), xs...)
		s := Summarize(xs)
		for i := range xs {
			if xs[i] != orig[i] {
				return false // Summarize must not mutate its input
			}
		}
		return s.P50 == Quantile(xs, 0.50) &&
			s.P90 == Quantile(xs, 0.90) &&
			s.P99 == Quantile(xs, 0.99) &&
			s.Min == Min(xs) && s.Max == Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("Summarize disagrees with Quantile/Min/Max: %v", err)
	}
}

func TestMinMaxMean(t *testing.T) {
	xs := []float64{-1, 5, 2}
	if Min(xs) != -1 || Max(xs) != 5 || math.Abs(Mean(xs)-2) > 1e-12 {
		t.Fatalf("Min/Max/Mean broken")
	}
}

func TestQuantilePropertyWithinRange(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(qRaw) / 255
		v := Quantile(xs, q)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v >= sorted[0]-1e-12 && v <= sorted[len(sorted)-1]+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("property violated: %v", err)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa, qb := float64(a)/255, float64(b)/255
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("monotonicity violated: %v", err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.25, 0.5, 0.75, 1})
	for _, x := range []float64{0.1, 0.1, 0.3, 0.6, 0.9, -0.5, 1.5} {
		h.Add(x)
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d, want 7", h.Total())
	}
	// -0.5 lands in the first bucket (no lower edge), 1.5 in the overflow slot.
	if want := []uint64{3, 1, 1, 1, 1}; !slices.Equal(h.Counts, want) {
		t.Fatalf("counts = %v, want %v", h.Counts, want)
	}
	if math.Abs(h.Sum-3) > 1e-12 {
		t.Fatalf("sum = %g, want 3", h.Sum)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Add(0.4) }); allocs != 0 {
		t.Fatalf("Add allocates %v times", allocs)
	}
	c := h.Clone()
	c.Add(0.1)
	if h.Counts[0] != 3 || c.Counts[0] != 4 {
		t.Fatal("Clone shares its counts with the original")
	}
}

func TestHistogramPanicsOnBadParams(t *testing.T) {
	for _, bounds := range [][]float64{nil, {1, 1}, {2, 1}, {1, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v: expected panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

// TestHistogramEdgeBucket pins the le semantics: a sample equal to a bound
// lands in that bound's bucket, one just above it in the next.
func TestHistogramEdgeBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	h.Add(10)
	h.Add(math.Nextafter(10, 11))
	h.Add(100)
	if want := []uint64{0, 1, 2, 0}; !slices.Equal(h.Counts, want) {
		t.Fatalf("counts = %v, want %v", h.Counts, want)
	}
}

// TestHistogramMergeMatchesPooled is the merge property: merging K histograms
// of disjoint samples equals building one histogram over the pooled samples
// — Total and every count, overflow included, exact — and the merged
// quantile estimates land within one bucket of the exact sample quantiles.
func TestHistogramMergeMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		parts := 2 + rng.Intn(5)
		buckets := 1 + rng.Intn(40)
		width := 100 / float64(buckets)
		bounds := make([]float64, buckets+1)
		for i := range bounds {
			bounds[i] = float64(i) * width
		}
		pooled := NewHistogram(bounds)
		merged := NewHistogram(bounds)
		var samples []float64
		for s := 0; s < parts; s++ {
			h := NewHistogram(bounds)
			for i := 0; i < rng.Intn(200); i++ {
				// Include mass outside the bounds so the merge must carry it too.
				x := -10 + rng.Float64()*120
				samples = append(samples, x)
				pooled.Add(x)
				h.Add(x)
			}
			if err := merged.Merge(h); err != nil {
				t.Fatal(err)
			}
		}
		if merged.Total() != pooled.Total() || merged.Total() != uint64(len(samples)) {
			t.Fatalf("trial %d: merged total %d, pooled %d, samples %d",
				trial, merged.Total(), pooled.Total(), len(samples))
		}
		if !slices.Equal(merged.Counts, pooled.Counts) {
			t.Fatalf("trial %d: counts merged %v pooled %v", trial, merged.Counts, pooled.Counts)
		}
		if math.Abs(merged.Sum-pooled.Sum) > 1e-9*(1+math.Abs(pooled.Sum)) {
			t.Fatalf("trial %d: sum merged %g pooled %g", trial, merged.Sum, pooled.Sum)
		}
		if len(samples) == 0 {
			continue
		}
		lo, hi := bounds[0], bounds[len(bounds)-1]
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.5, 0.99} {
			// The sample at the same rank the histogram walks to; the estimate
			// must land in that sample's bucket, i.e. within one bucket width.
			idx := int(math.Ceil(q*float64(len(sorted)))) - 1
			if idx < 0 {
				idx = 0
			}
			// Clamp like the histogram does: mass outside the bounds sits at
			// the first and last bound.
			exact := math.Min(math.Max(sorted[idx], lo), hi)
			got := merged.Quantile(q)
			if math.Abs(got-exact) > width+1e-9 {
				t.Fatalf("trial %d: q=%g estimate %g vs exact %g beyond bucket width %g",
					trial, q, got, exact, width)
			}
		}
	}
}

// TestHistogramMergeBoundsMismatch pins the typed refusal: merging histograms
// with different bounds must return *BoundsMismatchError and leave the
// receiver untouched instead of silently misbinning.
func TestHistogramMergeBoundsMismatch(t *testing.T) {
	base := NewHistogram([]float64{0.25, 0.5, 0.75, 1})
	base.Add(0.6)
	for _, other := range []*Histogram{
		NewHistogram([]float64{0.5, 1, 1.5, 2}),
		NewHistogram([]float64{0.25, 0.5, 0.75}),
		NewHistogram([]float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}),
		{}, // decoded from a report that carries no bounds
	} {
		err := base.Merge(other)
		var bm *BoundsMismatchError
		if !errors.As(err, &bm) {
			t.Fatalf("Merge returned %v, want *BoundsMismatchError", err)
		}
		if bm.Error() == "" {
			t.Fatal("empty mismatch message")
		}
		if base.Total() != 1 || base.Counts[2] != 1 || base.Sum != 0.6 {
			t.Fatalf("failed merge mutated the receiver: %+v", base)
		}
	}
}

// TestHistogramOutOfRangeRegression pins that samples outside the bounds
// are never dropped: those below the first bound count in the first bucket,
// those above the last in the overflow slot; both survive a Merge and
// anchor the quantile estimate at the outer bounds.
func TestHistogramOutOfRangeRegression(t *testing.T) {
	bounds := []float64{0, 2, 4, 6, 8, 10}
	h := NewHistogram(bounds)
	for _, x := range []float64{-5, -1, 20, 30, 40} {
		h.Add(x)
	}
	if h.Total() != 5 {
		t.Fatalf("out-of-range samples dropped: total %d, want 5", h.Total())
	}
	if h.Counts[0] != 2 || h.Counts[len(bounds)] != 3 {
		t.Fatalf("first/overflow %d/%d, want 2/3", h.Counts[0], h.Counts[len(bounds)])
	}
	other := NewHistogram(bounds)
	other.Add(-1)
	other.Add(100)
	if err := h.Merge(other); err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 || h.Counts[len(bounds)] != 4 || h.Total() != 7 {
		t.Fatalf("merge lost out-of-range mass: %+v", h)
	}
	// All mass outside the range: the quantile clamps to the outer bounds.
	if q := h.Quantile(0.0); q != 0 {
		t.Fatalf("q0 = %g, want the first bound", q)
	}
	if q := h.Quantile(1.0); q != 10 {
		t.Fatalf("q1 = %g, want the last bound", q)
	}
}
