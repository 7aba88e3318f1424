// Package benchcmp parses the benchmark results embedded in `go test -json`
// output and compares two such runs, benchstat-style: per benchmark it
// reduces the samples of a `-count=N` run to their median ns/op and their
// minimum allocs/op, and flags regressions against a tolerance. It backs cmd/benchdiff, the CI gate that
// compares a fresh BENCH_core.json against the previous run's artifact.
//
// Medians, not means: a single GC pause or noisy-neighbour spike in one of
// the N samples must not fail (or mask a failure of) the gate. Minimum
// allocs/op: a sync.Pool that drops its scratch at a GC adds allocations to
// the samples that GC fell in only, while a real extra allocation raises
// every sample, the smallest included.
package benchcmp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Key identifies one benchmark across runs.
type Key struct {
	// Package is the import path the benchmark lives in.
	Package string
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped, so
	// runs from machines with different core counts still line up.
	Name string
}

func (k Key) String() string { return k.Package + "." + k.Name }

// Samples collects the per-iteration measurements of one benchmark over the
// repetitions of a -count=N run.
type Samples struct {
	NsPerOp     []float64
	AllocsPerOp []float64
}

// testEvent is the subset of the `go test -json` event stream we read.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// benchLine matches a benchmark result line: a name starting with
// "Benchmark", an iteration count, then measurement fields.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]*)\s+\d+\s+(.*)$`)

// gomaxprocsSuffix strips the trailing "-N" processor count from a
// benchmark name.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// ParseStream reads a `go test -json` stream and returns the benchmark
// samples it contains, keyed by (package, normalized name). Non-benchmark
// output and unparseable lines are ignored — the stream interleaves build
// output, PASS lines and benchmark results. test2json splits one benchmark
// result across several output events (the name is printed before the run,
// the measurements after it), so events are reassembled into lines per
// package before parsing.
func ParseStream(r io.Reader) (map[Key]*Samples, error) {
	out := make(map[Key]*Samples)
	pending := make(map[string]*strings.Builder)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		if ev.Action != "output" {
			continue
		}
		b := pending[ev.Package]
		if b == nil {
			b = &strings.Builder{}
			pending[ev.Package] = b
		}
		b.WriteString(ev.Output)
		buf := b.String()
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			parseOutputLine(ev.Package, strings.TrimSpace(buf[:nl]), out)
			buf = buf[nl+1:]
		}
		b.Reset()
		b.WriteString(buf)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchcmp: reading stream: %w", err)
	}
	for pkg, b := range pending {
		if tail := strings.TrimSpace(b.String()); tail != "" {
			parseOutputLine(pkg, tail, out)
		}
	}
	return out, nil
}

// parseOutputLine folds one output line into the sample map if it is a
// benchmark result.
func parseOutputLine(pkg, line string, out map[Key]*Samples) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return
	}
	key := Key{Package: pkg, Name: gomaxprocsSuffix.ReplaceAllString(m[1], "")}
	s := out[key]
	if s == nil {
		s = &Samples{}
		out[key] = s
	}
	// The tail is a sequence of "<value> <unit>" pairs separated by tabs,
	// e.g. "123 ns/op\t45 B/op\t6 allocs/op\t1.0 nodes/op".
	for _, field := range strings.Split(m[2], "\t") {
		parts := strings.Fields(field)
		if len(parts) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			continue
		}
		switch parts[1] {
		case "ns/op":
			s.NsPerOp = append(s.NsPerOp, v)
		case "allocs/op":
			s.AllocsPerOp = append(s.AllocsPerOp, v)
		}
	}
}

// Median reduces a sample slice; it returns false when there are no samples.
func Median(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2], true
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2, true
}

// Regression is one benchmark that got worse beyond the gate's tolerance.
type Regression struct {
	Key    Key
	Metric string // "ns/op" or "allocs/op"
	Old    float64
	New    float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.6g -> %.6g (%+.1f%%)",
		r.Key, r.Metric, r.Old, r.New, 100*(r.New-r.Old)/r.Old)
}

// Options configures Compare.
type Options struct {
	// Filter selects the gated benchmarks, matched against
	// "package.BenchmarkName" (nil = all).
	Filter *regexp.Regexp
	// Tolerance is the allowed fractional ns/op growth (e.g. 0.10).
	Tolerance float64
	// SkipNs exempts matching benchmarks from the ns/op gate while keeping
	// their allocs/op gate: the wall-clock of some benchmarks (a loopback
	// HTTP round trip) on shared CI runners is not comparable run to run,
	// allocation counts are.
	SkipNs *regexp.Regexp
}

// Compare flags regressions of new against old. A benchmark regresses when
// its median ns/op exceeds the old median by more than Tolerance, or when
// its minimum allocs/op increases at all — the kernels' allocation counts
// are small constants that only a pool drop at GC inflates, so growth of
// the minimum is a real leak, not noise.
// Only benchmarks present in both runs and matching Filter are compared;
// benchmarks that appear or disappear are reported by the caller via
// Missing.
func Compare(old, new map[Key]*Samples, opts Options) []Regression {
	var regs []Regression
	for key, n := range new {
		o, ok := old[key]
		if !ok || (opts.Filter != nil && !opts.Filter.MatchString(key.String())) {
			continue
		}
		gateNs := opts.SkipNs == nil || !opts.SkipNs.MatchString(key.String())
		if oldNs, ok := Median(o.NsPerOp); ok && gateNs {
			if newNs, ok := Median(n.NsPerOp); ok && newNs > oldNs*(1+opts.Tolerance) {
				regs = append(regs, Regression{Key: key, Metric: "ns/op", Old: oldNs, New: newNs})
			}
		}
		if len(o.AllocsPerOp) > 0 && len(n.AllocsPerOp) > 0 {
			if oldAllocs, newAllocs := slices.Min(o.AllocsPerOp), slices.Min(n.AllocsPerOp); newAllocs > oldAllocs {
				regs = append(regs, Regression{Key: key, Metric: "allocs/op", Old: oldAllocs, New: newAllocs})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Key != regs[j].Key {
			return regs[i].Key.String() < regs[j].Key.String()
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

// Missing lists the filtered benchmarks of old that new no longer reports —
// a silently deleted benchmark would otherwise make its regressions
// invisible forever.
func Missing(old, new map[Key]*Samples, filter *regexp.Regexp) []Key {
	var keys []Key
	for key := range old {
		if filter != nil && !filter.MatchString(key.String()) {
			continue
		}
		if _, ok := new[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}
