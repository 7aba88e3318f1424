package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"crsharing/internal/core"
)

// RecordVersion is the current on-disk version of a crload recording. Decode
// refuses any other version instead of misparsing it.
const RecordVersion = 1

// recordKind is the header magic that distinguishes a recording from any
// other JSONL file handed to -replay by mistake.
const recordKind = "crload-recording"

// Request outcomes stored in a recording entry.
const (
	OutcomeOK         = "ok"
	OutcomeError      = "error"
	OutcomeShed       = "shed"        // refused by the server over quota (429)
	OutcomeDriverShed = "driver-shed" // never issued: the driver's inflight cap was full
	OutcomeCancelled  = "cancelled"
)

// Entry is one arrival of a run: when it was due relative to the run start,
// what it asked for (class, tenant, the full instance payloads, the online
// chain it belongs to) and how it ended.
// Replaying an entry re-issues the identical request at the identical offset;
// the recorded outcome is kept for run-to-run comparison, not re-imposed.
type Entry struct {
	// Seq is the arrival index within the run (dense from 0), in replay
	// order.
	Seq int
	// OffsetNS is when the arrival was due relative to the run start, in
	// nanoseconds: the planned offset, not the time the request was issued.
	OffsetNS int64
	// Class is the request class (solve, batch, jobs or online).
	Class string
	// Tenant is the X-Tenant identity the request carried (empty = anonymous).
	Tenant string
	// Families attributes each instance (parallel to Instances).
	Families []string
	// Instances is the full request payload: one instance for solve and jobs,
	// the batch window for batch.
	Instances []*core.Instance
	// Chain numbers the mutation chain an online entry belongs to (from 1;
	// 0 means none, as in recordings that predate chains). A replay sends
	// each chain entry the chain's latest answer as its warm start.
	Chain int
	// Outcome is how the recorded request ended (ok, error, shed,
	// driver-shed, cancelled).
	Outcome string
}

// newEntry describes one arrival of the given class, tenant and payload, due
// offset after the run start.
func newEntry(offset time.Duration, class, tenant string, items []Item) Entry {
	e := Entry{
		OffsetNS:  int64(offset),
		Class:     class,
		Tenant:    tenant,
		Families:  make([]string, len(items)),
		Instances: make([]*core.Instance, len(items)),
	}
	for i, it := range items {
		e.Families[i] = it.Family
		e.Instances[i] = it.Inst
	}
	return e
}

// items converts the entry payload back into the driver's corpus items.
func (e *Entry) items() []Item {
	out := make([]Item, len(e.Instances))
	for i, inst := range e.Instances {
		out[i] = Item{Family: e.Families[i], Inst: inst}
	}
	return out
}

// entryLine is an Entry as a recording line stores it: Entry's fields in
// the same order, with each instance's canonical fingerprint after the
// families. Encode derives the fingerprints from the instances and decode
// verifies them, so a corrupted payload cannot masquerade as the recorded
// request; entries in memory do not carry them.
type entryLine struct {
	Seq          int              `json:"seq"`
	OffsetNS     int64            `json:"offset_ns"`
	Class        string           `json:"class"`
	Tenant       string           `json:"tenant,omitempty"`
	Families     []string         `json:"families"`
	Fingerprints []string         `json:"fingerprints"`
	Instances    []*core.Instance `json:"instances"`
	Chain        int              `json:"chain,omitempty"`
	Outcome      string           `json:"outcome,omitempty"`
}

// fingerprints returns the canonical fingerprint of each instance.
func fingerprints(insts []*core.Instance) []string {
	out := make([]string, len(insts))
	for i, inst := range insts {
		out[i] = inst.Fingerprint().String()
	}
	return out
}

// Recording is a decoded replay log: the seed of the corpus the run replayed
// and every arrival in Seq order.
type Recording struct {
	Seed    int64
	Entries []Entry
}

// recordHeader is the first JSONL line of a recording.
type recordHeader struct {
	Kind    string `json:"crload_recording"`
	Version int    `json:"version"`
	Seed    int64  `json:"seed"`
}

// Encode writes the recording as versioned JSONL: one header line, then one
// line per entry in Seq order. Encoding is deterministic — encode → decode →
// encode is byte-identical, which FuzzRecordRoundTrip pins.
func (r *Recording) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(recordHeader{Kind: recordKind, Version: RecordVersion, Seed: r.Seed})
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for i := range r.Entries {
		e := &r.Entries[i]
		line, err := json.Marshal(&entryLine{
			Seq: e.Seq, OffsetNS: e.OffsetNS, Class: e.Class, Tenant: e.Tenant,
			Families: e.Families, Fingerprints: fingerprints(e.Instances), Instances: e.Instances,
			Chain: e.Chain, Outcome: e.Outcome,
		})
		if err != nil {
			return fmt.Errorf("harness: encoding entry %d: %w", i, err)
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Bytes is Encode into memory.
func (r *Recording) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFile encodes the recording to path.
func (r *Recording) WriteFile(path string) error {
	data, err := r.Bytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// DecodeRecording parses a versioned JSONL recording. Errors carry the
// 1-based line number: corrupt JSON, truncated lines (no trailing newline),
// inconsistent entries and payloads whose fingerprints do not match are all
// rejected rather than replayed wrong; an unknown version is refused, not
// misparsed.
func DecodeRecording(r io.Reader) (*Recording, error) {
	br := bufio.NewReader(r)
	readLine := func(n int) (string, error) {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			if line != "" {
				return "", fmt.Errorf("harness: recording line %d: truncated (no trailing newline)", n)
			}
			return "", io.EOF
		}
		if err != nil {
			return "", fmt.Errorf("harness: recording line %d: %w", n, err)
		}
		return line[:len(line)-1], nil
	}

	hdrLine, err := readLine(1)
	if err == io.EOF {
		return nil, errors.New("harness: recording is empty")
	}
	if err != nil {
		return nil, err
	}
	var hdr recordHeader
	if err := json.Unmarshal([]byte(hdrLine), &hdr); err != nil || hdr.Kind != recordKind {
		return nil, errors.New("harness: recording line 1: not a crload recording header")
	}
	if hdr.Version != RecordVersion {
		return nil, fmt.Errorf("harness: recording version %d not supported (want %d)", hdr.Version, RecordVersion)
	}

	rec := &Recording{Seed: hdr.Seed}
	for n := 2; ; n++ {
		line, err := readLine(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		var l entryLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			return nil, fmt.Errorf("harness: recording line %d: corrupt entry: %v", n, err)
		}
		if err := l.validate(len(rec.Entries)); err != nil {
			return nil, fmt.Errorf("harness: recording line %d: %w", n, err)
		}
		rec.Entries = append(rec.Entries, Entry{
			Seq: l.Seq, OffsetNS: l.OffsetNS, Class: l.Class, Tenant: l.Tenant,
			Families: l.Families, Instances: l.Instances, Chain: l.Chain, Outcome: l.Outcome,
		})
	}
	return rec, nil
}

// validate checks one decoded line's internal consistency, including that
// each payload hashes to its recorded fingerprint.
func (e *entryLine) validate(wantSeq int) error {
	if e.Seq != wantSeq {
		return fmt.Errorf("entry seq %d, want dense %d", e.Seq, wantSeq)
	}
	if e.OffsetNS < 0 {
		return fmt.Errorf("negative arrival offset %d", e.OffsetNS)
	}
	switch e.Class {
	case ClassSolve, ClassBatch, ClassJobs, ClassOnline:
	default:
		return fmt.Errorf("unknown class %q", e.Class)
	}
	if e.Chain < 0 {
		return fmt.Errorf("negative chain %d", e.Chain)
	}
	if e.Chain != 0 && e.Class != ClassOnline {
		return fmt.Errorf("%s entry carries chain %d; only online entries have chains", e.Class, e.Chain)
	}
	if len(e.Instances) == 0 {
		return errors.New("entry carries no instances")
	}
	if len(e.Families) != len(e.Instances) || len(e.Fingerprints) != len(e.Instances) {
		return fmt.Errorf("entry has %d instances but %d families / %d fingerprints",
			len(e.Instances), len(e.Families), len(e.Fingerprints))
	}
	for i, inst := range e.Instances {
		if inst == nil {
			return fmt.Errorf("instance %d is null", i)
		}
		if err := inst.Validate(); err != nil {
			return fmt.Errorf("instance %d: %w", i, err)
		}
		if fp := inst.Fingerprint().String(); fp != e.Fingerprints[i] {
			return fmt.Errorf("instance %d fingerprint %s does not match recorded %s (payload corrupted?)",
				i, fp, e.Fingerprints[i])
		}
	}
	return nil
}

// LoadRecording reads and decodes a recording file.
func LoadRecording(path string) (*Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec, err := DecodeRecording(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}
