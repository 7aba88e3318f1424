package core

import (
	"encoding/json"
	"math"
	"strconv"
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
// gives.

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
			b = appendFloat(b, job.Req)
			b = append(b, `,"size":`...)
			b = appendFloat(b, job.Size)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON implements json.Unmarshaler and validates the decoded
// instance.
func (in *Instance) UnmarshalJSON(data []byte) error {
	procs, ok := parseProcs(data)
	if !ok {
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

// MarshalJSON implements json.Marshaler.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	type alias Schedule
	if s == nil || !finiteRows(s.Alloc) {
		return json.Marshal((*alias)(s)) // null, or encoding/json's own error
	}
	if s.Alloc == nil {
		return []byte(`{"alloc":null}`), nil
	}
	b := make([]byte, 0, 12+3*len(s.Alloc)+20*len(s.Alloc)*s.NumProcessors())
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
			b = appendFloat(b, x)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	if alloc, ok := parseAlloc(data); ok {
		s.Alloc = alloc
		return nil
	}
	type alias Schedule
	return json.Unmarshal(data, (*alias)(s))
}

// appendFloat appends f as encoding/json encodes a float64: the shortest
// round-trip decimal, in exponent form only below 1e-6 or from 1e21 up, with
// a two-digit negative exponent shortened (e-09 becomes e-9).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func finiteJobs(procs [][]Job) bool {
	for _, js := range procs {
		for _, j := range js {
			if !finite(j.Req) || !finite(j.Size) {
				return false
			}
		}
	}
	return true
}

func finiteRows(rows [][]float64) bool {
	for _, row := range rows {
		for _, x := range row {
			if !finite(x) {
				return false
			}
		}
	}
	return true
}

// parseProcs decodes the canonical instance shape. ok is false for any other
// input, valid or not.
func parseProcs(data []byte) (procs [][]Job, ok bool) {
	var jobBuf [64]Job
	var endBuf [16]int
	jobs, ends := jobBuf[:0], endBuf[:0]
	sc := scanner{data: data}
	if !sc.token(`{"procs":[`) {
		return nil, false
	}
	if !sc.token(`]`) {
		for {
			if !sc.token(`[`) {
				return nil, false
			}
			if !sc.token(`]`) {
				for {
					if !sc.token(`{"req":`) {
						return nil, false
					}
					req, ok := sc.number()
					if !ok || !sc.token(`,"size":`) {
						return nil, false
					}
					size, ok := sc.number()
					if !ok || !sc.token(`}`) {
						return nil, false
					}
					jobs = append(jobs, Job{Req: req, Size: size})
					if sc.token(`]`) {
						break
					}
					if !sc.token(`,`) {
						return nil, false
					}
				}
			}
			ends = append(ends, len(jobs))
			if sc.token(`]`) {
				break
			}
			if !sc.token(`,`) {
				return nil, false
			}
		}
	}
	if !sc.token(`}`) || !sc.end() {
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

// parseAlloc decodes the canonical schedule shape. ok is false for any other
// input, valid or not.
func parseAlloc(data []byte) (alloc [][]float64, ok bool) {
	var cellBuf [128]float64
	var endBuf [32]int
	cells, ends := cellBuf[:0], endBuf[:0]
	sc := scanner{data: data}
	if !sc.token(`{"alloc":[`) {
		return nil, false
	}
	if !sc.token(`]`) {
		for {
			if !sc.token(`[`) {
				return nil, false
			}
			if !sc.token(`]`) {
				for {
					x, ok := sc.number()
					if !ok {
						return nil, false
					}
					cells = append(cells, x)
					if sc.token(`]`) {
						break
					}
					if !sc.token(`,`) {
						return nil, false
					}
				}
			}
			ends = append(ends, len(cells))
			if sc.token(`]`) {
				break
			}
			if !sc.token(`,`) {
				return nil, false
			}
		}
	}
	if !sc.token(`}`) || !sc.end() {
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

// scanner is a cursor over JSON input for the two canonical shapes.
type scanner struct {
	data []byte
	pos  int
}

func (sc *scanner) skipSpace() {
	for sc.pos < len(sc.data) {
		switch sc.data[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return
		}
	}
}

// token consumes tok if it comes next, allowing JSON whitespace before each
// of its structural characters and quoted keys but not inside a key.
func (sc *scanner) token(tok string) bool {
	pos, inKey := sc.pos, false
	for i := 0; i < len(tok); i++ {
		if !inKey {
			sc.skipSpace()
		}
		if sc.pos >= len(sc.data) || sc.data[sc.pos] != tok[i] {
			sc.pos = pos
			return false
		}
		sc.pos++
		if tok[i] == '"' {
			inKey = !inKey
		}
	}
	return true
}

// end reports whether only whitespace is left.
func (sc *scanner) end() bool {
	sc.skipSpace()
	return sc.pos == len(sc.data)
}

// number consumes a JSON number literal and parses it as encoding/json does
// for a float64 field. It fails, consuming nothing, on anything that is not
// a valid literal or does not fit a float64.
func (sc *scanner) number() (float64, bool) {
	sc.skipSpace()
	d, i := sc.data, sc.pos
	start := i
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i)
	default:
		return 0, false
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			return 0, false
		}
		i = skipDigits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return 0, false
		}
		i = skipDigits(d, i)
	}
	f, err := strconv.ParseFloat(string(d[start:i]), 64)
	if err != nil {
		return 0, false
	}
	sc.pos = i
	return f, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}
