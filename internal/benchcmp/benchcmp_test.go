package benchcmp

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// event builds one `go test -json` output event carrying a benchmark line.
func event(pkg, output string) string {
	return fmt.Sprintf(`{"Action":"output","Package":%q,"Output":%q}`, pkg, output+"\n")
}

// stream builds a synthetic -count=len(ns) run for one benchmark.
func stream(pkg, name string, ns []float64, allocs []float64) string {
	var b strings.Builder
	for i := range ns {
		line := fmt.Sprintf("%s-8   \t     100\t  %.0f ns/op\t  512 B/op\t  %.0f allocs/op", name, ns[i], allocs[i])
		b.WriteString(event(pkg, line) + "\n")
	}
	return b.String()
}

func TestParseStream(t *testing.T) {
	input := strings.Join([]string{
		`{"Action":"start","Package":"crsharing/internal/core"}`,
		event("crsharing/internal/core", "goos: linux"),
		event("crsharing/internal/core", "BenchmarkFoo-8   \t     100\t  1500 ns/op\t  512 B/op\t  12 allocs/op"),
		event("crsharing/internal/core", "BenchmarkFoo-8   \t     100\t  1700 ns/op\t  512 B/op\t  12 allocs/op"),
		// Custom metrics (nodes/op, nodes/s) interleave with the standard ones.
		event("crsharing/internal/algo/branchbound", "BenchmarkSerialWideManyProc-8 \t 2 \t 40214180 ns/op\t 200001 nodes/op\t 4973395 nodes/s\t 27312 B/op\t 414 allocs/op"),
		event("crsharing/internal/core", "PASS"),
		`{"Action":"pass","Package":"crsharing/internal/core"}`,
		"not json at all",
	}, "\n")
	got, err := ParseStream(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	foo := got[Key{Package: "crsharing/internal/core", Name: "BenchmarkFoo"}]
	if foo == nil || len(foo.NsPerOp) != 2 || foo.NsPerOp[0] != 1500 || foo.NsPerOp[1] != 1700 {
		t.Fatalf("BenchmarkFoo samples = %+v", foo)
	}
	if len(foo.AllocsPerOp) != 2 || foo.AllocsPerOp[0] != 12 {
		t.Fatalf("BenchmarkFoo allocs = %+v", foo.AllocsPerOp)
	}
	wide := got[Key{Package: "crsharing/internal/algo/branchbound", Name: "BenchmarkSerialWideManyProc"}]
	if wide == nil || len(wide.NsPerOp) != 1 || wide.AllocsPerOp[0] != 414 {
		t.Fatalf("wide benchmark samples = %+v", wide)
	}
}

// TestParseStreamReassemblesSplitLines mirrors what test2json actually
// emits: the benchmark name is printed before the run, so one result line
// arrives as several output events (name-with-tab, then the measurements),
// interleaved with events of other packages.
func TestParseStreamReassemblesSplitLines(t *testing.T) {
	raw := func(pkg, output string) string {
		return fmt.Sprintf(`{"Action":"output","Package":%q,"Output":%q}`, pkg, output)
	}
	input := strings.Join([]string{
		raw("p1", "BenchmarkSplit\n"),
		raw("p1", "BenchmarkSplit-8   \t"),
		raw("p2", "BenchmarkOther-8   \t     10\t  77 ns/op\t  1 B/op\t  2 allocs/op\n"),
		raw("p1", "     25\t  47280899 ns/op\t    200001 nodes/op\t   27312 B/op\t     414 allocs/op\n"),
	}, "\n")
	got, err := ParseStream(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	split := got[Key{Package: "p1", Name: "BenchmarkSplit"}]
	if split == nil || len(split.NsPerOp) != 1 || split.NsPerOp[0] != 47280899 || split.AllocsPerOp[0] != 414 {
		t.Fatalf("split benchmark samples = %+v", split)
	}
	other := got[Key{Package: "p2", Name: "BenchmarkOther"}]
	if other == nil || other.NsPerOp[0] != 77 {
		t.Fatalf("interleaved benchmark samples = %+v", other)
	}
}

func TestMedian(t *testing.T) {
	if _, ok := Median(nil); ok {
		t.Fatal("median of no samples reported ok")
	}
	if m, _ := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v, want 2", m)
	}
	if m, _ := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v, want 2.5", m)
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	parse := func(s string) map[Key]*Samples {
		t.Helper()
		m, err := ParseStream(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	old := parse(stream("p", "BenchmarkKernel", []float64{1000, 1010, 1020}, []float64{5, 5, 5}))

	// Within tolerance: +5% is not a regression at 10%.
	within := parse(stream("p", "BenchmarkKernel", []float64{1050, 1060, 1070}, []float64{5, 5, 5}))
	if regs := Compare(old, within, Options{Tolerance: 0.10}); len(regs) != 0 {
		t.Fatalf("+5%% flagged as regression: %v", regs)
	}

	// Beyond tolerance on the median.
	slow := parse(stream("p", "BenchmarkKernel", []float64{1200, 1210, 1220}, []float64{5, 5, 5}))
	regs := Compare(old, slow, Options{Tolerance: 0.10})
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("ns regression not flagged: %v", regs)
	}

	// One outlier sample must not trip the gate: the median absorbs it.
	spiky := parse(stream("p", "BenchmarkKernel", []float64{1000, 9000, 1020}, []float64{5, 5, 5}))
	if regs := Compare(old, spiky, Options{Tolerance: 0.10}); len(regs) != 0 {
		t.Fatalf("single outlier flagged as regression: %v", regs)
	}
}

func TestCompareFlagsAnyAllocsRegression(t *testing.T) {
	parse := func(s string) map[Key]*Samples {
		t.Helper()
		m, err := ParseStream(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	old := parse(stream("p", "BenchmarkKernel", []float64{1000, 1000, 1000}, []float64{5, 5, 5}))
	leak := parse(stream("p", "BenchmarkKernel", []float64{1000, 1000, 1000}, []float64{6, 6, 6}))
	regs := Compare(old, leak, Options{Tolerance: 0.10})
	if len(regs) != 1 || regs[0].Metric != "allocs/op" || regs[0].Old != 5 || regs[0].New != 6 {
		t.Fatalf("allocs/op regression not flagged: %v", regs)
	}
}

// TestCompareAllocsGatesOnMinimum pins the allocs/op reduction: a pool drop
// at GC adds allocations to some samples only and passes, while one more
// allocation in every sample fails.
func TestCompareAllocsGatesOnMinimum(t *testing.T) {
	parse := func(s string) map[Key]*Samples {
		t.Helper()
		m, err := ParseStream(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	ns := []float64{1000, 1000, 1000, 1000, 1000}
	old := parse(stream("p", "BenchmarkEngineSolveChain", ns, []float64{336, 336, 336, 336, 336}))
	dropped := parse(stream("p", "BenchmarkEngineSolveChain", ns, []float64{336, 337, 338, 336, 336}))
	if regs := Compare(old, dropped, Options{Tolerance: 0.10}); len(regs) != 0 {
		t.Fatalf("pool drops in some samples flagged: %v", regs)
	}
	planted := parse(stream("p", "BenchmarkEngineSolveChain", ns, []float64{337, 338, 339, 337, 337}))
	regs := Compare(old, planted, Options{Tolerance: 0.10})
	if len(regs) != 1 || regs[0].Metric != "allocs/op" || regs[0].Old != 336 || regs[0].New != 337 {
		t.Fatalf("one more allocation in every sample not flagged: %v", regs)
	}
}

// TestCompareSkipNs checks the noisy-benchmark exemption: a SkipNs match is
// not gated on wall-clock but still fails on allocation growth.
func TestCompareSkipNs(t *testing.T) {
	parse := func(s string) map[Key]*Samples {
		t.Helper()
		m, err := ParseStream(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	old := parse(stream("p", "BenchmarkParallelKernel", []float64{1000}, []float64{5}))
	slow := parse(stream("p", "BenchmarkParallelKernel", []float64{2000}, []float64{5}))
	opts := Options{Tolerance: 0.10, SkipNs: regexp.MustCompile("Parallel")}
	if regs := Compare(old, slow, opts); len(regs) != 0 {
		t.Fatalf("ns growth on a SkipNs benchmark flagged: %v", regs)
	}
	leaky := parse(stream("p", "BenchmarkParallelKernel", []float64{2000}, []float64{6}))
	regs := Compare(old, leaky, opts)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("allocs growth on a SkipNs benchmark not flagged: %v", regs)
	}
}

func TestCompareFilterAndMissing(t *testing.T) {
	parse := func(s string) map[Key]*Samples {
		t.Helper()
		m, err := ParseStream(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	old := parse(stream("p", "BenchmarkKernel", []float64{1000}, []float64{5}) +
		stream("p", "BenchmarkOther", []float64{1000}, []float64{5}))
	new := parse(stream("p", "BenchmarkOther", []float64{5000}, []float64{50}))

	filter := regexp.MustCompile("Kernel")
	if regs := Compare(old, new, Options{Filter: filter, Tolerance: 0.10}); len(regs) != 0 {
		t.Fatalf("filtered-out benchmark flagged: %v", regs)
	}
	missing := Missing(old, new, filter)
	if len(missing) != 1 || missing[0].Name != "BenchmarkKernel" {
		t.Fatalf("missing = %v, want BenchmarkKernel", missing)
	}
	if missing := Missing(old, new, nil); len(missing) != 1 {
		t.Fatalf("unfiltered missing = %v", missing)
	}
}
