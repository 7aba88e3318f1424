package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// tempFiles lists the temp files WriteFile may leave in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, ".*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

func TestWriteFileRoundTripsAndReplaces(t *testing.T) {
	dir := t.TempDir()
	for _, data := range [][]byte{[]byte(`{"v":1}`), []byte(`{"v":2,"longer":true}`), {}} {
		if err := WriteFile(dir, "rec.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "rec.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read back %q, wrote %q", got, data)
		}
	}
	if tmps := tempFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files survived: %v", tmps)
	}
}

func TestWriteFileSetsMode(t *testing.T) {
	dir := t.TempDir()
	for _, perm := range []os.FileMode{0o644, 0o600} {
		name := "f-" + perm.String()
		if err := WriteFile(dir, name, []byte("x"), perm); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if got := info.Mode().Perm(); got != perm {
			t.Fatalf("%s: mode %o, want %o", name, got, perm)
		}
	}
}

// TestWriteFileFailureKeepsPrevious makes the final rename fail (the target
// is a non-empty directory): the error must surface, the existing entry must
// be untouched and no temp file may stay behind.
func TestWriteFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "rec.json")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	inner := filepath.Join(target, "keep")
	if err := os.WriteFile(inner, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(dir, "rec.json", []byte("new"), 0o644); err == nil {
		t.Fatal("WriteFile over a directory reported success")
	}
	if info, err := os.Stat(target); err != nil || !info.IsDir() {
		t.Fatalf("previous entry disturbed: %v, %v", info, err)
	}
	if got, err := os.ReadFile(inner); err != nil || string(got) != "previous" {
		t.Fatalf("previous content disturbed: %q, %v", got, err)
	}
	if tmps := tempFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files survived a failed write: %v", tmps)
	}
}

func TestLoadDirQuarantinesRejectedFiles(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		"a.json":        "good",
		"b.json":        "bad",
		"c.txt":         "bad", // filtered out: neither decoded nor quarantined
		".d.json.tmp-1": "bad",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	var decoded []string
	n, err := LoadDir(dir,
		func(name string) bool { return filepath.Ext(name) == ".json" },
		func(name string, data []byte) error {
			decoded = append(decoded, name)
			if string(data) != "good" {
				return os.ErrInvalid
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || len(decoded) != 2 {
		t.Fatalf("quarantined %d after decoding %v, want 1 of [a.json b.json]", n, decoded)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range names {
		names[i] = filepath.Base(names[i])
	}
	want := []string{".d.json.tmp-1", "a.json", "b.json.corrupt", "c.txt", "sub.json"}
	if len(names) != len(want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("directory holds %v, want %v", names, want)
		}
	}
	if _, err := LoadDir(filepath.Join(dir, "missing"), nil, nil); err == nil {
		t.Fatal("LoadDir of a missing directory succeeded")
	}
}
