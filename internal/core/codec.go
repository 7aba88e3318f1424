package core

import (
	"encoding/json"
	"slices"

	"crsharing/internal/wire"
)

// The JSON wire codec of Instance and Schedule. Every request to the serving
// tier carries an instance, and every response with a schedule carries one,
// so the codec avoids encoding/json's reflection on the canonical shapes:
//
//	{"procs":[[{"req":r,"size":p},…],…]}
//	{"alloc":[[x,…],…]}
//
// Encoding appends bytes directly and produces exactly what encoding/json
// produces for the plain struct. Decoding parses the canonical shape (JSON
// whitespace allowed between tokens) in one pass into one backing array.
// Any other input — case-folded, unknown or duplicate keys, null rows, keys
// out of order, invalid or out-of-range numbers — is handed to encoding/json,
// so every decoded value and every error message is the one encoding/json
// gives. DecodeInstance and DecodeSchedule parse the same shapes in place
// inside a larger document, for the serving tier's envelope parsers.

// MarshalJSON implements json.Marshaler.
func (in *Instance) MarshalJSON() ([]byte, error) {
	type alias Instance
	if in == nil || !finiteJobs(in.Procs) {
		return json.Marshal((*alias)(in)) // null, or encoding/json's own error
	}
	if in.Procs == nil {
		return []byte(`{"procs":null}`), nil
	}
	b := make([]byte, 0, 12+3*len(in.Procs)+40*in.TotalJobs())
	b = append(b, `{"procs":[`...)
	for i, js := range in.Procs {
		if i > 0 {
			b = append(b, ',')
		}
		if js == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, job := range js {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"req":`...)
			b = wire.AppendFloat(b, job.Req)
			b = append(b, `,"size":`...)
			b = wire.AppendFloat(b, job.Size)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON implements json.Unmarshaler and validates the decoded
// instance.
func (in *Instance) UnmarshalJSON(data []byte) error {
	sc := wire.NewScanner(data)
	procs, ok := parseProcs(&sc)
	if !ok || !sc.End() {
		// The type keeps its name: encoding/json puts it into its errors.
		type wire struct {
			Procs [][]Job `json:"procs"`
		}
		var w wire
		if err := json.Unmarshal(data, &w); err != nil {
			return err
		}
		procs = w.Procs
	}
	in.Procs = procs
	in.bounds.Store(nil) // decoding replaces the jobs; drop any stale memo
	in.fp.Store(nil)
	return in.Validate()
}

// DecodeInstance parses a canonical instance at the scanner's position and
// returns it when it also passes Validate — what UnmarshalJSON gives for
// the same bytes. On false the position is unspecified and the caller
// should decode the whole document with encoding/json instead.
func DecodeInstance(sc *wire.Scanner) (*Instance, bool) {
	procs, ok := parseProcs(sc)
	if !ok {
		return nil, false
	}
	in := &Instance{Procs: procs}
	if in.Validate() != nil {
		return nil, false
	}
	return in, true
}

// DecodeInstanceInto is DecodeInstance decoding into dst, for a caller that
// needs each instance of a document only briefly (the router fingerprints
// them): it reuses the processor rows of dst's last decode where they have
// room, and drops dst's memoised bounds and fingerprint. dst's rows do not
// share one backing array, and the next decode overwrites them, so nothing
// may keep them. On false dst holds no instance and the position is
// unspecified, as for DecodeInstance.
func DecodeInstanceInto(sc *wire.Scanner, dst *Instance) bool {
	var jobBuf [64]Job
	var endBuf [16]int
	dst.bounds.Store(nil)
	dst.fp.Store(nil)
	jobs, ends, ok := scanProcs(sc, jobBuf[:0], endBuf[:0])
	if !ok {
		dst.Procs = dst.Procs[:0]
		return false
	}
	if extra := len(ends) - cap(dst.Procs); extra > 0 {
		dst.Procs = slices.Grow(dst.Procs[:cap(dst.Procs)], extra) // keeps every old row
	}
	dst.Procs = dst.Procs[:len(ends)]
	start := 0
	for i, end := range ends {
		row := append(dst.Procs[i][:0], jobs[start:end]...)
		if row == nil {
			row = []Job{} // decoded rows are non-nil even when empty
		}
		dst.Procs[i] = row
		start = end
	}
	if dst.Validate() != nil {
		dst.Procs = dst.Procs[:0]
		return false
	}
	return true
}

// MarshalJSON implements json.Marshaler.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	if s != nil {
		if b, ok := s.AppendJSON(make([]byte, 0, 12+3*len(s.Alloc)+20*len(s.Alloc)*s.NumProcessors())); ok {
			return b, nil
		}
	}
	type alias Schedule
	return json.Marshal((*alias)(s)) // null, or encoding/json's own error
}

// AppendJSON appends the schedule's JSON encoding to b, byte for byte what
// MarshalJSON returns. ok is false, with b returned unchanged, when a share
// is NaN or infinite: encoding/json refuses those, and the caller should
// let it produce its error.
func (s *Schedule) AppendJSON(b []byte) (_ []byte, ok bool) {
	if !finiteRows(s.Alloc) {
		return b, false
	}
	if s.Alloc == nil {
		return append(b, `{"alloc":null}`...), true
	}
	b = append(b, `{"alloc":[`...)
	for t, row := range s.Alloc {
		if t > 0 {
			b = append(b, ',')
		}
		if row == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for i, x := range row {
			if i > 0 {
				b = append(b, ',')
			}
			b = wire.AppendFloat(b, x)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), true
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	sc := wire.NewScanner(data)
	if alloc, ok := parseAlloc(&sc); ok && sc.End() {
		s.Alloc = alloc
		return nil
	}
	type alias Schedule
	return json.Unmarshal(data, (*alias)(s))
}

// DecodeSchedule parses a canonical schedule at the scanner's position. On
// false the position is unspecified and the caller should decode the whole
// document with encoding/json instead.
func DecodeSchedule(sc *wire.Scanner) (*Schedule, bool) {
	alloc, ok := parseAlloc(sc)
	if !ok {
		return nil, false
	}
	return &Schedule{Alloc: alloc}, true
}

func finiteJobs(procs [][]Job) bool {
	for _, js := range procs {
		for _, j := range js {
			if !wire.Finite(j.Req) || !wire.Finite(j.Size) {
				return false
			}
		}
	}
	return true
}

func finiteRows(rows [][]float64) bool {
	for _, row := range rows {
		for _, x := range row {
			if !wire.Finite(x) {
				return false
			}
		}
	}
	return true
}

// parseProcs decodes the canonical instance shape at the scanner's
// position into one backing array, leaving the scanner just past the
// closing brace. ok is false for any other input, valid or not.
func parseProcs(sc *wire.Scanner) (procs [][]Job, ok bool) {
	var jobBuf [64]Job
	var endBuf [16]int
	jobs, ends, ok := scanProcs(sc, jobBuf[:0], endBuf[:0])
	if !ok {
		return nil, false
	}
	backing := make([]Job, len(jobs)) // non-nil even when empty, as decoded rows are
	copy(backing, jobs)
	procs = make([][]Job, len(ends))
	start := 0
	for i, end := range ends {
		procs[i] = backing[start:end:end]
		start = end
	}
	return procs, true
}

// scanProcs scans the canonical instance shape at the scanner's position,
// appending every job to jobs and each row's end offset in jobs to ends.
func scanProcs(sc *wire.Scanner, jobs []Job, ends []int) (_ []Job, _ []int, ok bool) {
	if !sc.Token(`{"procs":[`) {
		return nil, nil, false
	}
	if !sc.Token(`]`) {
		for {
			if !sc.Token(`[`) {
				return nil, nil, false
			}
			if !sc.Token(`]`) {
				for {
					if !sc.Token(`{"req":`) {
						return nil, nil, false
					}
					req, ok := sc.Number()
					if !ok || !sc.Token(`,"size":`) {
						return nil, nil, false
					}
					size, ok := sc.Number()
					if !ok || !sc.Token(`}`) {
						return nil, nil, false
					}
					jobs = append(jobs, Job{Req: req, Size: size})
					if sc.Token(`]`) {
						break
					}
					if !sc.Token(`,`) {
						return nil, nil, false
					}
				}
			}
			ends = append(ends, len(jobs))
			if sc.Token(`]`) {
				break
			}
			if !sc.Token(`,`) {
				return nil, nil, false
			}
		}
	}
	if !sc.Token(`}`) {
		return nil, nil, false
	}
	return jobs, ends, true
}

// parseAlloc decodes the canonical schedule shape at the scanner's
// position, leaving it just past the closing brace. ok is false for any
// other input, valid or not.
func parseAlloc(sc *wire.Scanner) (alloc [][]float64, ok bool) {
	var cellBuf [128]float64
	var endBuf [32]int
	cells, ends := cellBuf[:0], endBuf[:0]
	if !sc.Token(`{"alloc":[`) {
		return nil, false
	}
	if !sc.Token(`]`) {
		for {
			if !sc.Token(`[`) {
				return nil, false
			}
			if !sc.Token(`]`) {
				for {
					x, ok := sc.Number()
					if !ok {
						return nil, false
					}
					cells = append(cells, x)
					if sc.Token(`]`) {
						break
					}
					if !sc.Token(`,`) {
						return nil, false
					}
				}
			}
			ends = append(ends, len(cells))
			if sc.Token(`]`) {
				break
			}
			if !sc.Token(`,`) {
				return nil, false
			}
		}
	}
	if !sc.Token(`}`) {
		return nil, false
	}
	backing := make([]float64, len(cells))
	copy(backing, cells)
	alloc = make([][]float64, len(ends))
	start := 0
	for t, end := range ends {
		alloc[t] = backing[start:end:end]
		start = end
	}
	return alloc, true
}
