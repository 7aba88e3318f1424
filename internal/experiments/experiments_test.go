package experiments

import (
	"strings"
	"testing"
)

func TestAllExperimentsRegistered(t *testing.T) {
	ids := []string{"F1", "F2", "F3", "F4", "F5", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13"}
	all := All()
	if len(all) != len(ids) {
		t.Fatalf("expected %d experiments, got %d", len(ids), len(all))
	}
	for _, id := range ids {
		if _, err := ByID(id); err != nil {
			t.Fatalf("experiment %s not registered: %v", id, err)
		}
	}
	// Ordering: figures before empirical checks, numerically within each.
	if all[0].ID != "F1" || all[4].ID != "F5" || all[5].ID != "E1" || all[len(all)-1].ID != "E13" {
		var order []string
		for _, e := range all {
			order = append(order, e.ID)
		}
		t.Fatalf("unexpected ordering: %v", order)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("F9"); err == nil {
		t.Fatalf("unknown id must error")
	}
	if e, err := ByID("f1"); err != nil || e.ID != "F1" {
		t.Fatalf("lookup must be case-insensitive, got %v %v", e.ID, err)
	}
}

func TestRunAllQuick(t *testing.T) {
	results, err := RunAll(QuickConfig())
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(results) != len(All()) {
		t.Fatalf("expected %d results, got %d", len(All()), len(results))
	}
	for _, r := range results {
		if len(r.Rows) == 0 {
			t.Fatalf("%s produced no rows", r.ID)
		}
		if len(r.Headers) == 0 {
			t.Fatalf("%s has no headers", r.ID)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Headers) {
				t.Fatalf("%s row width %d != header width %d", r.ID, len(row), len(r.Headers))
			}
		}
		table := r.Table()
		if !strings.Contains(table, r.ID) {
			t.Fatalf("%s table rendering missing the id:\n%s", r.ID, table)
		}
		csv := r.CSV()
		if !strings.Contains(csv, r.Headers[0]) {
			t.Fatalf("%s CSV rendering missing headers", r.ID)
		}
	}
}

func TestFigureExperimentsMatchPaperNumbers(t *testing.T) {
	cfg := QuickConfig()

	f1, err := ByID("F1")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := f1.Run(cfg)
	if err != nil {
		t.Fatalf("F1: %v", err)
	}
	if len(r1.Rows) != 3 {
		t.Fatalf("F1 should report 3 components, got %d", len(r1.Rows))
	}

	f4, err := ByID("F4")
	if err != nil {
		t.Fatal(err)
	}
	r4, err := f4.Run(cfg)
	if err != nil {
		t.Fatalf("F4: %v", err)
	}
	for _, row := range r4.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("F4 row disagrees with the reduction: %v", row)
		}
	}

	f3, err := ByID("F3")
	if err != nil {
		t.Fatal(err)
	}
	r3, err := f3.Run(cfg)
	if err != nil {
		t.Fatalf("F3: %v", err)
	}
	// The first row is n=10: RoundRobin 20, OPT 11.
	if r3.Rows[0][1] != "20" || r3.Rows[0][2] != "11" {
		t.Fatalf("F3 first row should be RoundRobin 20 / OPT 11, got %v", r3.Rows[0])
	}
}

func TestCSVEscaping(t *testing.T) {
	r := &Result{ID: "X", Headers: []string{"a", "b"}}
	r.AddRow("plain", `needs "quotes", and commas`)
	csv := r.CSV()
	if !strings.Contains(csv, `"needs ""quotes"", and commas"`) {
		t.Fatalf("CSV escaping broken:\n%s", csv)
	}
}

func TestAddRowFormatsFloats(t *testing.T) {
	r := &Result{ID: "X", Headers: []string{"v"}}
	r.AddRow(1.23456)
	if r.Rows[0][0] != "1.235" {
		t.Fatalf("float formatting = %q, want 1.235", r.Rows[0][0])
	}
}
