// Package experiments implements the reproduction harness: one experiment per
// figure and per theorem-level claim of the paper (All lists them; `crexp -h`
// prints the index). Every experiment produces a table of rows that cmd/crexp
// prints; bench_test.go at the repository root wraps the same runners in
// testing.B benchmarks. An experiment that checks a proven claim (a lower
// bound, an approximation ratio, an exact algorithm against an oracle)
// returns an error when the check fails, so a violated theorem fails RunAll
// and makes crexp exit non-zero; conjectures are only reported.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/solver"
)

// Config controls the size of the experiment runs.
type Config struct {
	// Seed makes the randomised experiments reproducible.
	Seed int64
	// Quick reduces instance sizes and trial counts so the whole suite runs
	// in well under a second (used by tests and short benchmarks). Full-size
	// crexp runs set Quick to false.
	Quick bool
	// Timeout bounds every exact-optimum oracle call made through
	// ExactMakespan (0 = no limit).
	Timeout time.Duration
}

// DefaultConfig returns the configuration used for the recorded results.
func DefaultConfig() Config { return Config{Seed: 20140623, Quick: false} }

// QuickConfig returns the reduced configuration used by tests.
func QuickConfig() Config { return Config{Seed: 20140623, Quick: true} }

// ExactMakespan computes the optimal makespan of the instance through the
// solver registry's exact racing portfolio: the m=2 dynamic program,
// branch-and-bound and the configuration enumeration run concurrently and the
// first to finish cancels the rest. It is the experiments' shared optimum
// oracle; cfg.Timeout applies to every call.
func (cfg Config) ExactMakespan(inst *core.Instance) (int, error) {
	ctx := context.Background()
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	sched, _, err := solver.NewExactPortfolio().Solve(ctx, inst)
	if err != nil {
		return 0, fmt.Errorf("experiments: exact oracle: %w", err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		return 0, fmt.Errorf("experiments: exact oracle produced invalid schedule: %w", err)
	}
	if !res.Finished() {
		return 0, fmt.Errorf("experiments: exact oracle schedule incomplete")
	}
	return res.Makespan(), nil
}

// Result is the outcome of one experiment: a table plus free-form notes.
type Result struct {
	// ID is the experiment identifier (F1..F5, E1..E13).
	ID string
	// Title is a one-line description.
	Title string
	// PaperClaim states what the paper claims (the expected shape).
	PaperClaim string
	// Headers are the column names of the table.
	Headers []string
	// Rows are the table rows, already formatted as strings.
	Rows [][]string
	// Notes hold additional observations (e.g. pass/fail summaries).
	Notes []string
}

// AddRow appends a row, formatting every cell with %v.
func (r *Result) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// AddNote appends a formatted note.
func (r *Result) AddNote(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the result's table as comma-separated values (headers first).
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Headers, ","))
	b.WriteString("\n")
	for _, row := range r.Rows {
		escaped := make([]string, len(row))
		for i, cell := range row {
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			escaped[i] = cell
		}
		b.WriteString(strings.Join(escaped, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID         string
	Title      string
	PaperClaim string
	Run        func(cfg Config) (*Result, error)
}

// registry holds all experiments, populated by init functions in the other
// files of this package.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate experiment %q", e.ID))
	}
	registry[e.ID] = e
}

// All returns every registered experiment sorted by ID (figures first, then
// empirical validations).
func All() []Experiment {
	var out []Experiment
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return experimentLess(out[i].ID, out[j].ID) })
	return out
}

// experimentLess orders F1..F5 before E1..E8 and numerically within a letter.
func experimentLess(a, b string) bool {
	rank := func(id string) (int, int) {
		letter := 1
		if strings.HasPrefix(id, "F") {
			letter = 0
		}
		var num int
		fmt.Sscanf(id[1:], "%d", &num)
		return letter, num
	}
	la, na := rank(a)
	lb, nb := rank(b)
	if la != lb {
		return la < lb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	e, ok := registry[strings.ToUpper(id)]
	if !ok {
		var ids []string
		for _, x := range All() {
			ids = append(ids, x.ID)
		}
		return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (available: %s)", id, strings.Join(ids, ", "))
	}
	return e, nil
}

// RunAll executes every experiment with the configuration and returns the
// results in order. It stops at the first error.
func RunAll(cfg Config) ([]*Result, error) {
	var out []*Result
	for _, e := range All() {
		res, err := e.Run(cfg)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, res)
	}
	return out, nil
}
