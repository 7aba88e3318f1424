package harness

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"crsharing/internal/solver"
)

// update regenerates the golden fixtures:
//
//	go test ./internal/harness -run TestGoldenCorpus -update
var update = flag.Bool("update", false, "rewrite the golden-corpus fixtures under testdata/")

// goldenSeed pins the corpus the fixtures were recorded on.
const goldenSeed = 1

// goldenFamilies keeps the fixture small and the exact solvers fast: tiny
// random instances plus the paper's fixed constructions.
var goldenFamilies = []string{FamilyTinyExact, FamilyPaperFigures}

// goldenSolvers lists the registered solvers whose output the corpus pins.
// The portfolio is included: it breaks ties by (makespan, waste, member
// order), not by which member finished first, so its answer is pinned like
// any other solver's.
var goldenSolvers = []string{
	"round-robin",
	"greedy-balance",
	"greedy-balance-small",
	"greedy-unbalanced-large",
	"opt-res-assignment-2",
	"branch-and-bound",
	"chunked-exact-w2",
	"chunked-exact-w3",
	"portfolio",
}

// goldenEntry is one (instance, solver) observation. Makespan must match
// exactly; waste within wasteTolerance.
type goldenEntry struct {
	Family      string  `json:"family"`
	Index       int     `json:"index"`
	Fingerprint string  `json:"fingerprint"`
	Solver      string  `json:"solver"`
	Makespan    int     `json:"makespan"`
	Wasted      float64 `json:"wasted"`
}

type goldenFile struct {
	Seed     int64         `json:"seed"`
	Families []string      `json:"families"`
	Solvers  []string      `json:"solvers"`
	Entries  []goldenEntry `json:"entries"`
}

const (
	goldenPath     = "testdata/golden_corpus.json"
	wasteTolerance = 1e-9
)

func goldenKey(e goldenEntry) string {
	return fmt.Sprintf("%s/%d/%s", e.Family, e.Index, e.Solver)
}

// computeGolden solves the golden corpus with every golden solver and
// returns the observations in deterministic order. Solvers that reject an
// instance (e.g. the m=2 dynamic program on three processors) contribute no
// entry — so a solver that starts rejecting instances it used to solve
// changes the entry set and is caught as drift.
func computeGolden(t *testing.T) goldenFile {
	t.Helper()
	corpus := BuildCorpus(goldenSeed)
	reg := solver.Default()
	out := goldenFile{Seed: goldenSeed, Families: goldenFamilies, Solvers: goldenSolvers}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, famName := range goldenFamilies {
		fam := corpus.Family(famName)
		if fam == nil {
			t.Fatalf("golden family %q missing from corpus", famName)
		}
		for idx, inst := range fam.Instances {
			for _, name := range goldenSolvers {
				sv, err := reg.New(name)
				if err != nil {
					t.Fatal(err)
				}
				ev, err := solver.Evaluate(ctx, sv, inst)
				if err != nil {
					continue // deterministic rejection; absence is part of the fixture
				}
				out.Entries = append(out.Entries, goldenEntry{
					Family:      famName,
					Index:       idx,
					Fingerprint: inst.Fingerprint().String(),
					Solver:      name,
					Makespan:    ev.Makespan,
					Wasted:      ev.Wasted,
				})
			}
		}
	}
	sort.Slice(out.Entries, func(i, j int) bool {
		return goldenKey(out.Entries[i]) < goldenKey(out.Entries[j])
	})
	return out
}

// TestGoldenCorpus is the behavioural-drift gate of `go test ./...`: every
// deterministic solver's makespan and waste on the golden corpus must match
// the checked-in fixtures. Run with -update after an intended behaviour
// change to regenerate them.
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus solve is not short")
	}
	got := computeGolden(t)
	if len(got.Entries) == 0 {
		t.Fatal("golden corpus produced no observations")
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath, len(got.Entries))
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading fixtures (regenerate with -update): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenPath, err)
	}
	if want.Seed != goldenSeed {
		t.Fatalf("fixture seed %d, test expects %d", want.Seed, goldenSeed)
	}

	wantByKey := make(map[string]goldenEntry, len(want.Entries))
	for _, e := range want.Entries {
		wantByKey[goldenKey(e)] = e
	}
	gotByKey := make(map[string]goldenEntry, len(got.Entries))
	for _, e := range got.Entries {
		gotByKey[goldenKey(e)] = e
	}

	for key, w := range wantByKey {
		g, ok := gotByKey[key]
		if !ok {
			t.Errorf("%s: solver no longer produces a result (fixture has makespan=%d)", key, w.Makespan)
			continue
		}
		if g.Fingerprint != w.Fingerprint {
			t.Errorf("%s: corpus drifted — fingerprint %s, fixture %s", key, g.Fingerprint, w.Fingerprint)
			continue
		}
		if g.Makespan != w.Makespan {
			t.Errorf("%s: makespan drifted from %d to %d (run with -update if intended)", key, w.Makespan, g.Makespan)
		}
		if math.Abs(g.Wasted-w.Wasted) > wasteTolerance {
			t.Errorf("%s: waste drifted from %.12f to %.12f (run with -update if intended)", key, w.Wasted, g.Wasted)
		}
	}
	for key := range gotByKey {
		if _, ok := wantByKey[key]; !ok {
			t.Errorf("%s: new observation not in fixtures (run with -update if intended)", key)
		}
	}
}
