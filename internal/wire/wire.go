// Package wire holds what the serving tier's hand-written JSON encoders and
// decoders share: reading a body sized by its Content-Length, a scanner for
// the canonical request and response shapes, and appenders that produce
// exactly the bytes encoding/json produces for a float64 or a string.
//
// The scanner only ever accepts input that encoding/json accepts and decodes
// to the same value. Every method reports false for anything it does not
// handle, valid JSON or not, and the caller then hands the whole input to
// encoding/json, so values and error messages stay encoding/json's.
package wire

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// Scanner is a cursor over JSON input.
type Scanner struct {
	data []byte
	pos  int
}

// NewScanner returns a scanner at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Pos returns the offset of the next unread byte.
func (sc *Scanner) Pos() int { return sc.pos }

// SkipSpace consumes JSON whitespace.
func (sc *Scanner) SkipSpace() {
	for sc.pos < len(sc.data) {
		switch sc.data[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return
		}
	}
}

// Token consumes tok if it comes next, allowing JSON whitespace before each
// of its structural characters and quoted keys but not inside a key. It
// consumes nothing when tok does not come next.
func (sc *Scanner) Token(tok string) bool {
	pos, inKey := sc.pos, false
	for i := 0; i < len(tok); i++ {
		if !inKey {
			sc.SkipSpace()
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

// End reports whether only whitespace is left.
func (sc *Scanner) End() bool {
	sc.SkipSpace()
	return sc.pos == len(sc.data)
}

// Number consumes a JSON number literal and parses it as encoding/json does
// for a float64 field. It fails, consuming nothing, on anything that is not
// a valid literal or does not fit a float64.
func (sc *Scanner) Number() (float64, bool) {
	sc.SkipSpace()
	end, ok := numberEnd(sc.data, sc.pos)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(sc.data[sc.pos:end]), 64)
	if err != nil {
		return 0, false
	}
	sc.pos = end
	return f, true
}

// Int consumes a JSON integer literal (no fraction, no exponent) of at most
// 18 digits, which encoding/json decodes into an int field to the same
// value. It fails, consuming nothing, on any other input.
func (sc *Scanner) Int() (int, bool) {
	sc.SkipSpace()
	end, ok := numberEnd(sc.data, sc.pos)
	if !ok {
		return 0, false
	}
	d, i := sc.data[sc.pos:end], 0
	neg := d[0] == '-'
	if neg {
		i++
	}
	if len(d)-i > 18 {
		return 0, false
	}
	n := 0
	for ; i < len(d); i++ {
		if !isDigit(d[i]) {
			return 0, false // a fraction or an exponent
		}
		n = n*10 + int(d[i]-'0')
	}
	if neg {
		n = -n
	}
	sc.pos = end
	return n, true
}

// literal consumes lit ("true", "false" or "null") if it comes next,
// allowing whitespace before it but not inside it.
func (sc *Scanner) literal(lit string) bool {
	sc.SkipSpace()
	if len(sc.data)-sc.pos < len(lit) || string(sc.data[sc.pos:sc.pos+len(lit)]) != lit {
		return false
	}
	sc.pos += len(lit)
	return true
}

// Bool consumes true or false.
func (sc *Scanner) Bool() (v, ok bool) {
	if sc.literal("true") {
		return true, true
	}
	return false, sc.literal("false")
}

// PlainBytes consumes a plain string — valid UTF-8 with no escape and no
// control character, whose decoded value is its bytes — and returns the
// bytes between its quotes, which alias the input. It fails, consuming
// nothing, on any other input.
func (sc *Scanner) PlainBytes() ([]byte, bool) {
	sc.SkipSpace()
	d, i := sc.data, sc.pos
	if i >= len(d) || d[i] != '"' {
		return nil, false
	}
	i++
	start, ascii := i, true
	for ; i < len(d) && d[i] != '"'; i++ {
		switch c := d[i]; {
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	if i >= len(d) || !ascii && !utf8.Valid(d[start:i]) {
		return nil, false
	}
	sc.pos = i + 1
	return d[start:i], true
}

// PlainString is PlainBytes as a string.
func (sc *Scanner) PlainString() (string, bool) {
	b, ok := sc.PlainBytes()
	return string(b), ok
}

// Object consumes an object whose keys are all plain strings, calling member
// with each key (aliasing the input) and the scanner just past its colon;
// member consumes the value and reports whether it accepts the member. It
// reports false when member does or the object is malformed, leaving the
// position unspecified.
func (sc *Scanner) Object(member func(key []byte) bool) bool {
	if !sc.Token("{") {
		return false
	}
	if sc.Token("}") {
		return true
	}
	for {
		key, ok := sc.PlainBytes()
		if !ok || !sc.Token(":") || !member(key) {
			return false
		}
		if sc.Token("}") {
			return true
		}
		if !sc.Token(",") {
			return false
		}
	}
}

// maxDepth bounds the nesting Skip follows; deeper values are declined (for
// encoding/json to decide on) rather than recursed into.
const maxDepth = 64

// Skip consumes one JSON value of any kind, accepting exactly what
// encoding/json accepts (invalid UTF-8 inside strings included) up to a
// nesting depth of 64. On false the position is unspecified.
func (sc *Scanner) Skip() bool { return sc.skip(0) }

func (sc *Scanner) skip(depth int) bool {
	sc.SkipSpace()
	if sc.pos >= len(sc.data) {
		return false
	}
	switch sc.data[sc.pos] {
	case '{':
		if depth == maxDepth {
			return false
		}
		sc.pos++
		if sc.Token("}") {
			return true
		}
		for {
			sc.SkipSpace()
			if !sc.skipString() || !sc.Token(":") || !sc.skip(depth+1) {
				return false
			}
			if sc.Token("}") {
				return true
			}
			if !sc.Token(",") {
				return false
			}
		}
	case '[':
		if depth == maxDepth {
			return false
		}
		sc.pos++
		if sc.Token("]") {
			return true
		}
		for {
			if !sc.skip(depth + 1) {
				return false
			}
			if sc.Token("]") {
				return true
			}
			if !sc.Token(",") {
				return false
			}
		}
	case '"':
		return sc.skipString()
	case 't':
		return sc.literal("true")
	case 'f':
		return sc.literal("false")
	case 'n':
		return sc.literal("null")
	default:
		end, ok := numberEnd(sc.data, sc.pos)
		sc.pos = end
		return ok
	}
}

// skipString consumes a string literal with any valid escapes.
func (sc *Scanner) skipString() bool {
	d, i := sc.data, sc.pos
	if i >= len(d) || d[i] != '"' {
		return false
	}
	for i++; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			sc.pos = i + 1
			return true
		case c < 0x20:
			return false
		case c == '\\':
			i++
			if i >= len(d) {
				return false
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(d)-i <= 4 || !isHex(d[i+1]) || !isHex(d[i+2]) || !isHex(d[i+3]) || !isHex(d[i+4]) {
					return false
				}
				i += 4
			default:
				return false
			}
		}
	}
	return false
}

// numberEnd returns the end of the JSON number literal starting at d[i].
func numberEnd(d []byte, i int) (int, bool) {
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = skipDigits(d, i)
	default:
		return i, false
	}
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || !isDigit(d[i]) {
			return i, false
		}
		i = skipDigits(d, i)
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || !isDigit(d[i]) {
			return i, false
		}
		i = skipDigits(d, i)
	}
	return i, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F' }

func skipDigits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// Finite reports whether encoding/json can encode f: it refuses NaN and the
// infinities.
func Finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// AppendFloat appends a finite f as encoding/json encodes a float64: the
// shortest round-trip decimal, in exponent form only below 1e-6 or from 1e21
// up, with a two-digit negative exponent shortened (e-09 becomes e-9).
func AppendFloat(b []byte, f float64) []byte {
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

// AppendString appends s quoted as encoding/json's Marshal and Encoder (with
// their default HTML escaping) encode a string: '"' and '\\' escaped with a
// backslash; \b, \f, \n, \r and \t by name; other control characters and
// '<', '>' and '&' as \u00XX; each byte of invalid UTF-8 as \ufffd; and
// U+2028 and U+2029 as \u2028 and \u2029.
func AppendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
