package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// specialStrings covers every escape AppendString makes and the bytes
// around them.
var specialStrings = []string{
	"",
	"plain ascii",
	`quote " and backslash \`,
	"\b\f\n\r\t\x00\x01\x1f\x7f",
	"<html> & 'quotes'",
	"café 世界 \U0001F600",
	"line\u2028sep\u2029para",
	"invalid \xff\xfe utf-8 \xc3",
	"truncated \xe2\x80",
	"surrogate half \xed\xa0\x80",
	"\u2027\u202a",
}

func randomString(rng *rand.Rand) string {
	const alphabet = "ab\"\\<>&/\b\f\n\r\t\x00\x1f\x7f\xff\xc3\xa9\xe2\x80\xa8\xa9 "
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		if rng.Intn(4) == 0 {
			b.WriteString(specialStrings[rng.Intn(len(specialStrings))])
		} else {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
	}
	return b.String()
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got[1:], want)
		}
	}
	for _, s := range specialStrings {
		check(s)
	}
	for c := 0; c < 256; c++ {
		check(string([]byte{byte(c)}))
		check("a" + string([]byte{byte(c)}) + "\u2028")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		check(randomString(rng))
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 1e22, -1e21, 5e-324, math.MaxFloat64, 1.0 / 3, 123456789.125, 1e-9}
	for i := 0; i < 5000; i++ {
		floats = append(floats, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if (err != nil) != !Finite(f) {
			t.Fatalf("Finite(%v) = %v, but encoding/json error is %v", f, Finite(f), err)
		}
		if err != nil {
			continue
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// skipSeeds are values Skip must accept exactly when encoding/json does.
var skipSeeds = []string{
	`null`, `true`, `false`, `0`, `-0`, `1.5e+3`, `""`, `"a\"b\\c\/\b\f\n\r\té"`,
	`"\u12"`, `"\x"`, "\"\x01\"", "\"\xff\"", `[]`, `{}`, `[1,[2,{"a":[3]}]]`,
	` { "a" : 1 , "b" : [ true , null ] } `, `{"a":1,}`, `[1,]`, `{"a"}`, `{1:2}`,
	`01`, `1.`, `.5`, `-`, `1e`, `tru`, `nul`, `"open`, `[`, `{`,
	strings.Repeat("[", 64) + strings.Repeat("]", 64),
	strings.Repeat("[", 65) + strings.Repeat("]", 65),
}

// checkSkip holds Skip to encoding/json's validity: Skip accepting a whole
// document means json.Valid does, and the value ends where the scanner
// stopped.
func checkSkip(t *testing.T, data []byte) {
	t.Helper()
	sc := NewScanner(data)
	if sc.Skip() && sc.End() != json.Valid(data) {
		t.Fatalf("Skip accepts %q, json.Valid = %v", data, json.Valid(data))
	}
	depth := bytes.Count(data, []byte("[")) + bytes.Count(data, []byte("{"))
	sc = NewScanner(data)
	if depth <= maxDepth && json.Valid(data) && !(sc.Skip() && sc.End()) {
		t.Fatalf("Skip rejects %q, which encoding/json accepts", data)
	}
}

func TestSkipMatchesEncodingJSON(t *testing.T) {
	for _, seed := range skipSeeds {
		checkSkip(t, []byte(seed))
	}
}

func FuzzSkip(f *testing.F) {
	for _, seed := range skipSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkSkip)
}

// TestScalars holds the scalar readers to what encoding/json decodes into a
// string, int and bool field, and to consuming nothing when they decline.
func TestScalars(t *testing.T) {
	for _, tc := range []string{`"plain"`, `"caf` + "é" + `"`, `""`, `"esc\n"`, "\"ctl\x01\"", "\"bad\xff\"", `"open`, `1`} {
		sc := NewScanner([]byte(tc))
		got, ok := sc.PlainString()
		var want string
		err := json.Unmarshal([]byte(tc), &want)
		if ok && (err != nil || got != want) {
			t.Fatalf("PlainString(%s) = %q, encoding/json %q (%v)", tc, got, want, err)
		}
		if !ok && sc.Pos() != 0 {
			t.Fatalf("PlainString(%s) declined but consumed %d bytes", tc, sc.Pos())
		}
		if wantPlain := !strings.ContainsAny(tc, "\\\x01\xff") && err == nil; ok != wantPlain {
			t.Fatalf("PlainString(%s) ok = %v, want %v", tc, ok, wantPlain)
		}
	}
	for _, tc := range []string{`0`, `-0`, `42`, `-17`, `123456789012345678`, `1234567890123456789`, `1.0`, `1e2`, `01`, `-`, `x`} {
		sc := NewScanner([]byte(tc))
		got, ok := sc.Int()
		var want int
		err := json.Unmarshal([]byte(tc), &want)
		if ok && sc.End() && (err != nil || got != want) {
			t.Fatalf("Int(%s) = %d, encoding/json %d (%v)", tc, got, want, err)
		}
		if !ok && sc.Pos() != 0 {
			t.Fatalf("Int(%s) declined but consumed %d bytes", tc, sc.Pos())
		}
	}
	for _, tc := range []string{`true`, `false`, ` true`, `t rue`, `null`, `True`} {
		sc := NewScanner([]byte(tc))
		got, ok := sc.Bool()
		var want bool
		err := json.Unmarshal([]byte(tc), &want)
		if ok && (err != nil || got != want || !sc.End()) {
			t.Fatalf("Bool(%s) = %v, encoding/json %v (%v)", tc, got, want, err)
		}
	}
}
