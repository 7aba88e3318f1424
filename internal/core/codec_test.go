package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"crsharing/internal/wire"
)

// The reference codec: the encoding/json paths Instance and Schedule used
// before their hand-written codec, verbatim, local type names included
// (encoding/json puts them into its error messages).

func refDecodeInstance(data []byte) (*Instance, error) {
	type wire struct {
		Procs [][]Job `json:"procs"`
	}
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	in := &Instance{Procs: w.Procs}
	return in, in.Validate()
}

func refEncodeInstance(in *Instance) ([]byte, error) {
	type alias Instance
	return json.Marshal((*alias)(in))
}

func refDecodeSchedule(data []byte) (*Schedule, error) {
	type alias Schedule
	var s Schedule
	return &s, json.Unmarshal(data, (*alias)(&s))
}

func refEncodeSchedule(s *Schedule) ([]byte, error) {
	type alias Schedule
	return json.Marshal((*alias)(s))
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameJobs compares row shapes (nil against empty included) and float bits.
func sameJobs(a, b [][]Job) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j].Req) != math.Float64bits(b[i][j].Req) ||
				math.Float64bits(a[i][j].Size) != math.Float64bits(b[i][j].Size) {
				return false
			}
		}
	}
	return true
}

func sameRows(a, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for t := range a {
		if (a[t] == nil) != (b[t] == nil) || len(a[t]) != len(b[t]) {
			return false
		}
		for i := range a[t] {
			if math.Float64bits(a[t][i]) != math.Float64bits(b[t][i]) {
				return false
			}
		}
	}
	return true
}

// checkInstanceDecode holds Instance.UnmarshalJSON to the reference on
// accept/reject, the error message, row shapes and float bits, both called
// directly and through json.Unmarshal.
func checkInstanceDecode(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refDecodeInstance(data)
	var got Instance
	gotErr := got.UnmarshalJSON(data)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("decode %q: error %q, reference %q", data, errString(gotErr), errString(wantErr))
	}
	if want != nil && !sameJobs(got.Procs, want.Procs) {
		t.Fatalf("decode %q: procs %#v, reference %#v", data, got.Procs, want.Procs)
	}
	var viaJSON Instance
	if err := json.Unmarshal(data, &viaJSON); wantErr == nil && err != nil {
		t.Fatalf("json.Unmarshal %q: %v", data, err)
	} else if err == nil && !sameJobs(viaJSON.Procs, got.Procs) {
		t.Fatalf("json.Unmarshal %q: procs differ from UnmarshalJSON", data)
	}
}

// checkInstanceEncode holds Instance.MarshalJSON to the reference byte for
// byte, the error on NaN and Inf included, both called directly and through
// json.Marshal.
func checkInstanceEncode(t *testing.T, in *Instance) {
	t.Helper()
	want, wantErr := refEncodeInstance(in)
	got, gotErr := in.MarshalJSON()
	if errString(gotErr) != errString(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("encode %#v: %q (%v), reference %q (%v)", in.Procs, got, gotErr, want, wantErr)
	}
	if wantErr != nil {
		return
	}
	if viaJSON, err := json.Marshal(in); err != nil || !bytes.Equal(viaJSON, want) {
		t.Fatalf("json.Marshal %#v: %q (%v), reference %q", in.Procs, viaJSON, err, want)
	}
}

func checkScheduleDecode(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refDecodeSchedule(data)
	var got Schedule
	gotErr := got.UnmarshalJSON(data)
	if errString(gotErr) != errString(wantErr) {
		t.Fatalf("decode %q: error %q, reference %q", data, errString(gotErr), errString(wantErr))
	}
	if wantErr == nil && !sameRows(got.Alloc, want.Alloc) {
		t.Fatalf("decode %q: alloc %#v, reference %#v", data, got.Alloc, want.Alloc)
	}
}

func checkScheduleEncode(t *testing.T, s *Schedule) {
	t.Helper()
	want, wantErr := refEncodeSchedule(s)
	got, gotErr := s.MarshalJSON()
	if errString(gotErr) != errString(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("encode %#v: %q (%v), reference %q (%v)", s.Alloc, got, gotErr, want, wantErr)
	}
	if wantErr != nil {
		return
	}
	if viaJSON, err := json.Marshal(s); err != nil || !bytes.Equal(viaJSON, want) {
		t.Fatalf("json.Marshal %#v: %q (%v), reference %q", s.Alloc, viaJSON, err, want)
	}
}

// instanceSeeds covers the canonical shape and every way out of it: the
// whitespace the scanner accepts, and the case-folded, unknown, duplicate,
// reordered or null keys, invalid and out-of-range numbers and trailing data
// it hands to encoding/json.
var instanceSeeds = []string{
	`{"procs":[[{"req":0.5,"size":1},{"req":0.25,"size":2}],[{"req":1,"size":1}]]}`,
	`{"procs":[]}`,
	`{"procs":[[]]}`,
	`{"procs":[[],[{"req":0,"size":1}]]}`,
	`{"procs":null}`,
	`{"procs":[null]}`,
	`{}`,
	`null`,
	` { "procs" : [ [ { "req" : 0.5 , "size" : 1 } ] ] } `,
	"{\"procs\":\n[[{\"req\":\t0.5,\r\"size\":1}]]}",
	`{"Procs":[[{"req":0.5,"size":1}]]}`,
	`{"procs":[[{"REQ":0.5,"Size":1}]]}`,
	`{"procs":[[{"size":1,"req":0.5}]]}`,
	`{"procs":[[{"req":0.5}]]}`,
	`{"procs":[[{"req":0.5,"size":1,"x":2}]]}`,
	`{"procs":[[{"req":0.5,"size":1}]],"extra":true}`,
	`{"procs":[[{"req":0.5,"size":1}]],"procs":[[{"req":0.25,"size":1}]]}`,
	`{"procs":[[{"req":-0,"size":1}]]}`,
	`{"procs":[[{"req":-0.0,"size":1e0}]]}`,
	`{"procs":[[{"req":1E-7,"size":1e+2}]]}`,
	`{"procs":[[{"req":5e-324,"size":1}]]}`,
	`{"procs":[[{"req":1e-400,"size":1}]]}`,
	`{"procs":[[{"req":0.5,"size":1e400}]]}`,
	`{"procs":[[{"req":01,"size":1}]]}`,
	`{"procs":[[{"req":.5,"size":1}]]}`,
	`{"procs":[[{"req":5.,"size":1}]]}`,
	`{"procs":[[{"req":+1,"size":1}]]}`,
	`{"procs":[[{"req":1e,"size":1}]]}`,
	`{"procs":[[{"req":"0.5","size":1}]]}`,
	`{"procs":[[{"req":NaN,"size":1}]]}`,
	`{"procs":[[{"req":1.5,"size":1}]]}`,
	`{"procs":[[{"req":0.5,"size":0}]]}`,
	`{"procs":[[{"req":0.5,"size":1}]]}x`,
	`{"procs":[[{"req":0.5,"size":1}],]}`,
	`{"procs":[[{"req":0.5,"size":1}]]`,
	`{"procs":[[{"req":0.5,"size":1}]]}`,
	`[]`,
	``,
}

var scheduleSeeds = []string{
	`{"alloc":[[0.5,0.5],[1,0]]}`,
	`{"alloc":[]}`,
	`{"alloc":[[]]}`,
	`{"alloc":null}`,
	`{"alloc":[null,[1]]}`,
	`{}`,
	`null`,
	` { "alloc" : [ [ 0.5 , 0.5 ] ] } `,
	`{"Alloc":[[1]]}`,
	`{"alloc":[[1]],"alloc":[[0.5]]}`,
	`{"alloc":[[1]],"x":1}`,
	`{"alloc":[[-0,1e-9,1E21,2.5e+3]]}`,
	`{"alloc":[[1e999]]}`,
	`{"alloc":[[01]]}`,
	`{"alloc":[[1,]]}`,
	`{"alloc":[["1"]]}`,
	`{"alloc":[[1]]} x`,
	``,
}

func TestInstanceCodecMatchesEncodingJSON(t *testing.T) {
	for _, seed := range instanceSeeds {
		checkInstanceDecode(t, []byte(seed))
	}
	neg := math.Copysign(0, -1)
	for _, in := range []*Instance{
		{},
		{Procs: [][]Job{}},
		{Procs: [][]Job{nil, {}}},
		NewInstance([]float64{0.5, 0.25}, []float64{1, neg, 0}),
		NewSizedInstance([]Job{{Req: 1e-7, Size: 1e21}, {Req: 1e-6, Size: 1e20}, {Req: 5e-324, Size: 123456789.125}}),
		NewSizedInstance([]Job{{Req: 1.0 / 3, Size: 2.5e-10}}),
		NewSizedInstance([]Job{{Req: math.NaN(), Size: 1}}),
		NewSizedInstance([]Job{{Req: 0.5, Size: math.Inf(1)}}),
		NewSizedInstance([]Job{{Req: 0.5, Size: 1}}, []Job{{Req: math.Inf(-1), Size: 1}}),
	} {
		checkInstanceEncode(t, in)
	}
	if got, err := (*Instance)(nil).MarshalJSON(); err != nil || string(got) != "null" {
		t.Fatalf("nil instance encodes as %q (%v), want null", got, err)
	}
}

func TestScheduleCodecMatchesEncodingJSON(t *testing.T) {
	for _, seed := range scheduleSeeds {
		checkScheduleDecode(t, []byte(seed))
	}
	for _, s := range []*Schedule{
		{},
		{Alloc: [][]float64{}},
		{Alloc: [][]float64{nil, {}}},
		{Alloc: [][]float64{{0.5, 0.5}, {1e-7, 1 - 1e-7}, {math.Copysign(0, -1), 1e21}}},
		{Alloc: [][]float64{{math.NaN()}}},
		{Alloc: [][]float64{{0.5, math.Inf(-1)}}},
	} {
		checkScheduleEncode(t, s)
	}
	if got, err := (*Schedule)(nil).MarshalJSON(); err != nil || string(got) != "null" {
		t.Fatalf("nil schedule encodes as %q (%v), want null", got, err)
	}
}

// TestCodecRoundTripsAreExact decodes what the codec encodes, bit for bit,
// including the exponent-form floats.
func TestCodecRoundTripsAreExact(t *testing.T) {
	in := NewSizedInstance([]Job{{Req: 1e-7, Size: 3e21}, {Req: 0.1, Size: 1}}, nil, []Job{{Req: 1, Size: 0.5}})
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Instance
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !sameJobs(back.Procs[:1], in.Procs[:1]) || len(back.Procs[1]) != 0 || !back.Equal(in) {
		t.Fatalf("round trip changed the instance: %s", raw)
	}
}

// TestDecodeInstanceIntoMatchesDecodeInstance decodes every seed, and a
// run of shapes that grow and shrink, into one reused instance: each decode
// accepts exactly what DecodeInstance accepts, with the same rows and float
// bits and a fingerprint that is the new instance's, not a stale memo. Once
// the rows have room, decoding the same shape again allocates nothing.
func TestDecodeInstanceIntoMatchesDecodeInstance(t *testing.T) {
	docs := append([]string(nil), instanceSeeds...)
	for _, in := range []*Instance{
		NewInstance([]float64{0.5, 0.25, 0.125}, []float64{1}, []float64{0.75, 0.5}),
		NewInstance([]float64{0.5}),
		NewInstance([]float64{0.25, 0.25}, nil, []float64{0.5}, []float64{0.5, 0.5, 0.5, 0.5}),
		NewInstance(),
	} {
		raw, err := in.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(raw))
	}
	var scratch Instance
	for pass := 0; pass < 2; pass++ {
		for _, doc := range docs {
			sc := wire.NewScanner([]byte(doc))
			want, wantOK := DecodeInstance(&sc)
			sc = wire.NewScanner([]byte(doc))
			if ok := DecodeInstanceInto(&sc, &scratch); ok != wantOK {
				t.Fatalf("%q: DecodeInstanceInto ok=%v, DecodeInstance %v", doc, ok, wantOK)
			} else if !ok {
				continue
			}
			if !sameJobs(scratch.Procs, want.Procs) {
				t.Fatalf("%q: rows %#v, DecodeInstance %#v", doc, scratch.Procs, want.Procs)
			}
			if scratch.Fingerprint() != want.Fingerprint() || scratch.Bounds() != want.Bounds() {
				t.Fatalf("%q: memoised fingerprint or bounds of an earlier decode", doc)
			}
		}
	}
	doc := []byte(docs[len(docs)-2])
	allocs := testing.AllocsPerRun(100, func() {
		sc := wire.NewScanner(doc)
		if !DecodeInstanceInto(&sc, &scratch) {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("re-decoding one shape allocates %.1f times, want 0", allocs)
	}
}

// FuzzInstanceJSON holds the instance codec to encoding/json: decoding
// agrees on accept/reject, the error, row shapes and float bits, and
// re-encoding what decoded is byte-identical. The second target builds an
// instance from raw float bits (NaN and Inf included) to fuzz the encoder.
func FuzzInstanceJSON(f *testing.F) {
	for _, seed := range instanceSeeds {
		f.Add([]byte(seed), uint64(0), uint64(0))
	}
	f.Add([]byte(`{"procs":[[{"req":1e-7,"size":1}]]}`), math.Float64bits(1e-9), math.Float64bits(1e22))
	f.Add([]byte(`{}`), math.Float64bits(math.NaN()), math.Float64bits(1))
	f.Fuzz(func(t *testing.T, data []byte, req, size uint64) {
		checkInstanceDecode(t, data)
		var in Instance
		if in.UnmarshalJSON(data) == nil {
			checkInstanceEncode(t, &in)
		}
		job := Job{Req: math.Float64frombits(req), Size: math.Float64frombits(size)}
		checkInstanceEncode(t, NewSizedInstance([]Job{job, job}, nil, []Job{job}))
	})
}

// FuzzScheduleJSON is FuzzInstanceJSON for schedules.
func FuzzScheduleJSON(f *testing.F) {
	for _, seed := range scheduleSeeds {
		f.Add([]byte(seed), uint64(0))
	}
	f.Add([]byte(`{"alloc":[[1e-7]]}`), math.Float64bits(1e-9))
	f.Add([]byte(`{}`), math.Float64bits(math.Inf(1)))
	f.Fuzz(func(t *testing.T, data []byte, share uint64) {
		checkScheduleDecode(t, data)
		var s Schedule
		if s.UnmarshalJSON(data) == nil {
			checkScheduleEncode(t, &s)
		}
		x := math.Float64frombits(share)
		checkScheduleEncode(t, &Schedule{Alloc: [][]float64{{x, 0.5}, nil, {}}})
	})
}

// BenchmarkInstanceJSONReference runs the encoding/json paths the codec
// replaced, for comparison with BenchmarkInstanceJSON.
func BenchmarkInstanceJSONReference(b *testing.B) {
	inst := gridInstance(6, 4)
	raw, _ := json.Marshal(inst)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refEncodeInstance(inst)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refDecodeInstance(raw)
		}
	})
}

// BenchmarkInstanceJSON measures the codec at the size servebench's pool
// draws (6x4) and at a larger size (8x64).
func BenchmarkInstanceJSON(b *testing.B) {
	for _, sz := range []struct{ m, n int }{{6, 4}, {8, 64}} {
		inst := gridInstance(sz.m, sz.n)
		raw, err := json.Marshal(inst)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("m=%d/n=%d", sz.m, sz.n)
		b.Run("encode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inst.MarshalJSON(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var in Instance
				if err := in.UnmarshalJSON(raw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleJSON measures the codec on a 12-step, 6-processor
// schedule, the shape of a solved 6x4 pool instance.
func BenchmarkScheduleJSON(b *testing.B) {
	s := NewSchedule(12, 6)
	for t := range s.Alloc {
		for i := range s.Alloc[t] {
			s.Alloc[t][i] = float64((t*6+i)%7) / 31
		}
	}
	raw, err := json.Marshal(s)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.MarshalJSON(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out Schedule
			if err := out.UnmarshalJSON(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
