package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// testRecording builds a small recording straight from the corpus, one entry
// per class, covering tenants, multi-instance (batch) payloads and an online
// chain.
func testRecording(t testing.TB) *Recording {
	t.Helper()
	items := BuildCorpus(7).Items()
	if len(items) < 8 {
		t.Fatalf("corpus too small: %d items", len(items))
	}
	rec := &Recording{Seed: 7, Entries: []Entry{
		newEntry(0, ClassSolve, "", items[0:1]),
		newEntry(3*time.Millisecond, ClassBatch, "gold", items[1:5]),
		newEntry(5*time.Millisecond, ClassJobs, "free", items[5:6]),
		newEntry(9*time.Millisecond, ClassSolve, "gold", items[6:7]),
		newEntry(12*time.Millisecond, ClassOnline, "", items[7:8]),
	}}
	for i, outcome := range []string{OutcomeOK, OutcomeOK, OutcomeCancelled, OutcomeShed, OutcomeOK} {
		rec.Entries[i].Seq = i
		rec.Entries[i].Outcome = outcome
	}
	rec.Entries[4].Chain = 1
	return rec
}

// chainRecording is the plan of a short online-only run: one chain whose
// entries are successive mutations of its base.
func chainRecording(t testing.TB) *Recording {
	t.Helper()
	d, err := NewDriver(Config{
		BaseURL:  "http://unused",
		Corpus:   BuildCorpus(7),
		Mix:      Mix{Online: 1},
		Rate:     10,
		Duration: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.plan
}

// TestRecordRoundTrip pins the codec contract: encode → decode → re-encode is
// byte-identical and the decoded recording matches the original entry for
// entry.
func TestRecordRoundTrip(t *testing.T) {
	rec := testRecording(t)
	data, err := rec.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeRecording(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Seed != rec.Seed {
		t.Fatalf("decoded seed %d, want %d", dec.Seed, rec.Seed)
	}
	if len(dec.Entries) != len(rec.Entries) {
		t.Fatalf("decoded %d entries, want %d", len(dec.Entries), len(rec.Entries))
	}
	for i, e := range dec.Entries {
		orig := rec.Entries[i]
		if e.Seq != orig.Seq || e.OffsetNS != orig.OffsetNS || e.Class != orig.Class ||
			e.Tenant != orig.Tenant || e.Chain != orig.Chain || e.Outcome != orig.Outcome {
			t.Fatalf("entry %d decoded as %+v, want %+v", i, e, orig)
		}
		want := fingerprints(orig.Instances)
		for j, fp := range fingerprints(e.Instances) {
			if fp != want[j] {
				t.Fatalf("entry %d fingerprint %d changed across round trip", i, j)
			}
		}
	}
	again, err := dec.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("encode → decode → encode is not byte-identical")
	}
}

// TestRecordFileRoundTrip covers the WriteFile/LoadRecording path and the
// path-carrying error wrapping.
func TestRecordFileRoundTrip(t *testing.T) {
	rec := testRecording(t)
	path := t.TempDir() + "/run.jsonl"
	if err := rec.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	dec, err := LoadRecording(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Entries) != len(rec.Entries) {
		t.Fatalf("loaded %d entries, want %d", len(dec.Entries), len(rec.Entries))
	}
	if _, err := LoadRecording(path + ".missing"); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestDecodeRejectsUnknownVersion checks a future version is refused
// outright, not misparsed.
func TestDecodeRejectsUnknownVersion(t *testing.T) {
	data := fmt.Sprintf("{\"crload_recording\":%q,\"version\":%d,\"seed\":1}\n", recordKind, RecordVersion+1)
	_, err := DecodeRecording(strings.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version not refused: %v", err)
	}
}

// TestDecodeRejectsForeignFile checks an arbitrary JSONL file is rejected at
// the header, before any entry parsing.
func TestDecodeRejectsForeignFile(t *testing.T) {
	for _, data := range []string{
		"",
		"{\"requests\": 12}\n",
		"not json at all\n",
	} {
		if _, err := DecodeRecording(strings.NewReader(data)); err == nil {
			t.Fatalf("foreign input %q decoded as a recording", data)
		}
	}
}

// TestDecodeRejectsCorruptLines checks every corruption mode is rejected with
// the 1-based line number it occurred on.
func TestDecodeRejectsCorruptLines(t *testing.T) {
	rec := testRecording(t)
	data, err := rec.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines = lines[:len(lines)-1] // drop the empty tail after the final newline

	t.Run("corrupt json", func(t *testing.T) {
		mut := append([]string(nil), lines...)
		mut[2] = "{\"seq\": 1, \"class\": \n"
		_, err := DecodeRecording(strings.NewReader(strings.Join(mut, "")))
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("corrupt line 3 not reported by line number: %v", err)
		}
	})
	t.Run("truncated last line", func(t *testing.T) {
		trunc := strings.Join(lines, "")
		trunc = trunc[:len(trunc)-1] // strip the final newline mid-entry
		_, err := DecodeRecording(strings.NewReader(trunc))
		want := fmt.Sprintf("line %d", len(lines))
		if err == nil || !strings.Contains(err.Error(), "truncated") || !strings.Contains(err.Error(), want) {
			t.Fatalf("truncated %s not reported: %v", want, err)
		}
	})
	t.Run("non-dense seq", func(t *testing.T) {
		mut := append([]string(nil), lines...)
		mut[1], mut[2] = mut[2], mut[1]
		_, err := DecodeRecording(strings.NewReader(strings.Join(mut, "")))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("out-of-order seq not reported on line 2: %v", err)
		}
	})
	t.Run("tampered payload", func(t *testing.T) {
		// Bump a requirement inside the payload without touching the recorded
		// fingerprint: the re-hash on decode must catch it.
		const was = "\"procs\":[[{\"req\":0."
		if !strings.Contains(lines[1], was) {
			t.Fatalf("entry line does not carry the expected payload shape: %s", lines[1])
		}
		mut := append([]string(nil), lines...)
		mut[1] = strings.Replace(lines[1], was, "\"procs\":[[{\"req\":0.9", 1)
		_, err := DecodeRecording(strings.NewReader(strings.Join(mut, "")))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "fingerprint") {
			t.Fatalf("tampered payload not caught by fingerprint check: %v", err)
		}
	})
	t.Run("chain on a solve entry", func(t *testing.T) {
		mut := append([]string(nil), lines...)
		mut[1] = strings.Replace(lines[1], "{\"seq\":0,", "{\"seq\":0,\"chain\":1,", 1)
		_, err := DecodeRecording(strings.NewReader(strings.Join(mut, "")))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "chain") {
			t.Fatalf("chain on a solve entry not rejected on line 2: %v", err)
		}
	})
	t.Run("negative chain", func(t *testing.T) {
		if !strings.Contains(lines[5], "\"chain\":1,") {
			t.Fatalf("online entry line does not carry its chain: %s", lines[5])
		}
		mut := append([]string(nil), lines...)
		mut[5] = strings.Replace(lines[5], "\"chain\":1,", "\"chain\":-1,", 1)
		_, err := DecodeRecording(strings.NewReader(strings.Join(mut, "")))
		if err == nil || !strings.Contains(err.Error(), "line 6") || !strings.Contains(err.Error(), "chain") {
			t.Fatalf("negative chain not rejected on line 6: %v", err)
		}
	})
}

// FuzzRecordRoundTrip fuzzes the decoder with arbitrary bytes: any input that
// decodes must re-encode byte-identically after one canonical encode →
// decode cycle, and the decoder must never panic on garbage.
func FuzzRecordRoundTrip(f *testing.F) {
	rec := testRecording(f)
	data, err := rec.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte("{\"crload_recording\":\"crload-recording\",\"version\":1,\"seed\":0}\n"))
	f.Add([]byte("{\"crload_recording\":\"crload-recording\",\"version\":2,\"seed\":0}\n"))
	f.Add([]byte(""))
	f.Add([]byte("garbage\n"))
	chained, err := chainRecording(f).Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chained)
	f.Fuzz(func(t *testing.T, in []byte) {
		dec, err := DecodeRecording(bytes.NewReader(in))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		first, err := dec.Bytes()
		if err != nil {
			t.Fatalf("decoded recording does not re-encode: %v", err)
		}
		second, err := DecodeRecording(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v", err)
		}
		again, err := second.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("encode → decode → encode is not a fixed point")
		}
	})
}
