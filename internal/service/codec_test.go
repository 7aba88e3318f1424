package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/solver"
)

// refDecode is the encoding/json path decode takes for a body that is not
// canonical: the reference the canonical decoders are held to.
func refDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("parsing request: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return errors.New("trailing data after request body")
	}
	return nil
}

// sameInstance compares two decoded instances by row shape (nil against
// empty included) and float bits.
func sameInstance(a, b *core.Instance) bool {
	if a == nil || b == nil {
		return a == b
	}
	if (a.Procs == nil) != (b.Procs == nil) || len(a.Procs) != len(b.Procs) {
		return false
	}
	for i := range a.Procs {
		if (a.Procs[i] == nil) != (b.Procs[i] == nil) || len(a.Procs[i]) != len(b.Procs[i]) {
			return false
		}
		for j, x := range a.Procs[i] {
			y := b.Procs[i][j]
			if math.Float64bits(x.Req) != math.Float64bits(y.Req) || math.Float64bits(x.Size) != math.Float64bits(y.Size) {
				return false
			}
		}
	}
	return true
}

func sameSchedule(a, b *core.Schedule) bool {
	if a == nil || b == nil {
		return a == b
	}
	if (a.Alloc == nil) != (b.Alloc == nil) || len(a.Alloc) != len(b.Alloc) {
		return false
	}
	for t := range a.Alloc {
		if (a.Alloc[t] == nil) != (b.Alloc[t] == nil) || len(a.Alloc[t]) != len(b.Alloc[t]) {
			return false
		}
		for i, x := range a.Alloc[t] {
			if math.Float64bits(x) != math.Float64bits(b.Alloc[t][i]) {
				return false
			}
		}
	}
	return true
}

func sameSolveRequest(a, b SolveRequest) bool {
	return a.Solver == b.Solver && a.Timeout == b.Timeout && a.IncludeSchedule == b.IncludeSchedule &&
		sameInstance(a.Instance, b.Instance) && sameSchedule(a.WarmStart, b.WarmStart)
}

func sameBatchRequest(a, b BatchRequest) bool {
	if a.Solver != b.Solver || a.Timeout != b.Timeout ||
		(a.Instances == nil) != (b.Instances == nil) || len(a.Instances) != len(b.Instances) {
		return false
	}
	for i := range a.Instances {
		if !sameInstance(a.Instances[i], b.Instances[i]) {
			return false
		}
	}
	return true
}

// The instance of the seed bodies, as servebench's pool encodes one.
const seedInstance = `{"procs":[[{"req":0.3,"size":1},{"req":0.7,"size":2}],[{"req":0.5,"size":1}],[]]}`

// requestVariants returns body variants around a canonical member list:
// whitespace, case-folded, duplicate, unknown, null, escaped, out-of-range
// and trailing-data ones.
func requestVariants(members string) []string {
	canonical := "{" + members + "}"
	return []string{
		canonical,
		" \n{ " + strings.ReplaceAll(strings.ReplaceAll(members, ":", " : "), ",\"", " ,\t\"") + " }\r\n",
		strings.Replace(canonical, `"timeout"`, `"Timeout"`, 1),
		strings.Replace(canonical, `"timeout":"2s"`, `"timeout":"2s","timeout":"3s"`, 1),
		strings.Replace(canonical, `"timeout":"2s"`, `"timeout":"2s","extra":1`, 1),
		strings.Replace(canonical, `"timeout":"2s"`, `"timeout":null`, 1),
		strings.Replace(canonical, `"timeout":"2s"`, `"timeout":"2\u0073"`, 1),
		strings.Replace(canonical, `"timeout":"2s"`, `"timeout":"2s\xff"`, 1),
		strings.Replace(canonical, `"timeout":"2s"`, `"timeout":2`, 1),
		strings.Replace(canonical, `"timeout":"2s"`, `"timeout":"sideways"`, 1),
		strings.Replace(canonical, `"timeout":"2s"`, `"solver":"no-such","timeout":"2s"`, 1),
		strings.Replace(canonical, `"size":2`, `"size":1e400`, 1),
		strings.Replace(canonical, `"req":0.7`, `"req":1.5`, 1),
		strings.Replace(canonical, `"req":0.7`, `"req":-0`, 1),
		strings.Replace(canonical, `{"req":0.5,"size":1}`, `null`, 1),
		canonical + " x",
		canonical + "}",
		canonical + "]]garbage",
		canonical[:len(canonical)-1],
		"",
		"null",
		"[]",
		"{}",
	}
}

func solveSeeds() []string {
	seeds := requestVariants(`"instance":` + seedInstance + `,"timeout":"2s","include_schedule":true`)
	seeds = append(seeds,
		`{"instance":`+seedInstance+`,"solver":"stub","timeout":"2s","include_schedule":false}`,
		`{"include_schedule":true,"instance":`+seedInstance+`}`,
		`{"instance":`+seedInstance+`,"warm_start":{"alloc":[[0.3,0.5,0],[0.7,0.3,0],[0.7,0,0]]}}`,
		`{"instance":`+seedInstance+`,"warm_start":null}`,
		`{"instance":`+seedInstance+`,"warm_start":{"alloc":[[1e999]]}}`,
		`{"instance":`+seedInstance+`,"include_schedule":"true"}`,
		`{"instance":null,"timeout":"2s"}`,
		`{"instances":[`+seedInstance+`]}`,
		`{"timeout":"2s"}`,
	)
	return seeds
}

func batchSeeds() []string {
	seeds := requestVariants(`"instances":[` + seedInstance + `,` + seedInstance + `],"timeout":"2s"`)
	seeds = append(seeds,
		`{"solver":"stub","instances":[`+seedInstance+`],"timeout":"2s"}`,
		`{"instances":[]}`,
		`{"instances":null}`,
		`{"instances":[null]}`,
		`{"instances":[`+seedInstance+`,]}`,
		`{"instance":`+seedInstance+`}`,
	)
	return seeds
}

// newParityHandlers returns two servers over identical cache-less engines:
// one decodes canonical bodies in one pass, the other sends every body
// through encoding/json.
func newParityHandlers(tb testing.TB) (fast, ref http.Handler) {
	build := func(jsonOnly bool) http.Handler {
		reg := solver.NewRegistry()
		reg.Register("stub", func() solver.Solver { return &stubSolver{name: "stub"} })
		eng, err := engine.New(engine.Config{
			Registry:       reg,
			DefaultSolver:  "stub",
			DefaultTimeout: 5 * time.Second,
			MaxTimeout:     10 * time.Second,
		})
		if err != nil {
			tb.Fatal(err)
		}
		srv, err := New(Config{Engine: eng})
		if err != nil {
			tb.Fatal(err)
		}
		srv.jsonOnly = jsonOnly
		return srv.Handler()
	}
	return build(false), build(true)
}

// withoutQueueTimes drops the admission waits, the one timing-dependent
// field a stub solve reports, from a JSON response body.
func withoutQueueTimes(body []byte) string {
	var v any
	if json.Unmarshal(body, &v) != nil {
		return string(body)
	}
	var strip func(any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			delete(v, "queue_ms")
			for _, x := range v {
				strip(x)
			}
		case []any:
			for _, x := range v {
				strip(x)
			}
		}
	}
	strip(v)
	out, _ := json.Marshal(v)
	return string(out)
}

// checkHandlerParity posts body to path on both handlers and requires the
// same status and body. A sub-second timeout makes the outcome depend on
// timing, so such requests are only decoded, not compared.
func checkHandlerParity(t *testing.T, fast, ref http.Handler, path string, body []byte, timeout string) {
	t.Helper()
	if d, err := time.ParseDuration(timeout); err == nil && d < time.Second {
		return
	}
	serve := func(h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec
	}
	got, want := serve(fast), serve(ref)
	if got.Code != want.Code {
		t.Fatalf("%s %q: status %d, encoding/json path %d", path, body, got.Code, want.Code)
	}
	if got.Code != http.StatusOK && !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
		withoutQueueTimes(got.Body.Bytes()) != withoutQueueTimes(want.Body.Bytes()) {
		t.Fatalf("%s %q: body %s, encoding/json path %s", path, body, got.Body.Bytes(), want.Body.Bytes())
	}
}

// FuzzSolveRequestDecode holds the canonical solve and job decoders to the
// encoding/json path: each either declines or decodes exactly what
// encoding/json decodes, floats compared by bits, and the handler answers
// with the same status and body either way.
func FuzzSolveRequestDecode(f *testing.F) {
	for _, seed := range solveSeeds() {
		f.Add([]byte(seed))
	}
	fast, ref := newParityHandlers(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var want SolveRequest
		refErr := refDecode(body, &want)
		var got SolveRequest
		if got.DecodeCanonical(body) {
			if refErr != nil {
				t.Fatalf("canonical decode accepted %q, encoding/json: %v", body, refErr)
			}
			if !sameSolveRequest(got, want) {
				t.Fatalf("canonical decode of %q = %+v, encoding/json %+v", body, got, want)
			}
		}
		var job, wantJob JobRequest
		if job.DecodeCanonical(body) {
			if err := refDecode(body, &wantJob); err != nil || job.Solver != wantJob.Solver ||
				job.Timeout != wantJob.Timeout || !sameInstance(job.Instance, wantJob.Instance) {
				t.Fatalf("canonical job decode of %q = %+v, encoding/json %+v (%v)", body, job, wantJob, err)
			}
		}
		checkHandlerParity(t, fast, ref, "/v1/solve", body, want.Timeout)
	})
}

// FuzzBatchRequestDecode is FuzzSolveRequestDecode for batch bodies.
func FuzzBatchRequestDecode(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add([]byte(seed))
	}
	fast, ref := newParityHandlers(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var want BatchRequest
		refErr := refDecode(body, &want)
		var got BatchRequest
		if got.DecodeCanonical(body) {
			if refErr != nil {
				t.Fatalf("canonical decode accepted %q, encoding/json: %v", body, refErr)
			}
			if !sameBatchRequest(got, want) {
				t.Fatalf("canonical decode of %q = %+v, encoding/json %+v", body, got, want)
			}
		}
		checkHandlerParity(t, fast, ref, "/v1/batch-solve", body, want.Timeout)
	})
}

// TestCanonicalBodiesTakeTheFastPath pins that the servebench-shaped bodies
// are canonical, so the parity fuzzing above compares decoded values and
// not only two encoding/json runs.
func TestCanonicalBodiesTakeTheFastPath(t *testing.T) {
	for _, body := range []string{solveSeeds()[0], solveSeeds()[1], `{"instance":` + seedInstance + `,"warm_start":{"alloc":[[0.5]]}}`} {
		if !new(SolveRequest).DecodeCanonical([]byte(body)) {
			t.Errorf("solve body %s is not decoded in one pass", body)
		}
	}
	if !new(BatchRequest).DecodeCanonical([]byte(batchSeeds()[0])) {
		t.Errorf("batch body %s is not decoded in one pass", batchSeeds()[0])
	}
	if !new(JobRequest).DecodeCanonical([]byte(`{"instance":` + seedInstance + `,"timeout":"2s"}`)) {
		t.Error("job body is not decoded in one pass")
	}
}

// TestTrailingDataRejected: anything but whitespace after the request value
// is answered 400, including a closing bracket or brace, which
// json.Decoder.More does not report.
func TestTrailingDataRejected(t *testing.T) {
	_, ts := newJobsServer(t, &stubSolver{name: "stub"}, nil)
	bodies := map[string]string{
		"/v1/solve":       `{"instance":` + seedInstance + `}`,
		"/v1/batch-solve": `{"instances":[` + seedInstance + `]}`,
		"/v1/jobs":        `{"instance":` + seedInstance + `}`,
	}
	for path, body := range bodies {
		for _, tail := range []string{"]]garbage", "}", " x"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body+tail))
			if err != nil {
				t.Fatal(err)
			}
			var got ErrorResponse
			json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || got.Error != "trailing data after request body" {
				t.Errorf("%s with tail %q: status %d error %q, want 400 trailing data", path, tail, resp.StatusCode, got.Error)
			}
		}
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body+" \r\n\t"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 && resp.StatusCode != http.StatusGatewayTimeout {
			t.Errorf("%s with a whitespace tail: status %d", path, resp.StatusCode)
		}
	}
}

// TestCacheHitBuildsOneSolver: the engine resolves each solver name to one
// solver, built on first use, so over a run of mixed cache hits and fresh
// solves under two names each factory runs exactly once. An unknown name is
// never stored and is refused with the registry's own error every time.
func TestCacheHitBuildsOneSolver(t *testing.T) {
	var builtA, builtB atomic.Int64
	var reg *solver.Registry
	_, ts := newTestServer(t, &stubSolver{name: "stub"}, func(ecfg *engine.Config, _ *Config) {
		reg = solver.NewRegistry()
		reg.Register("stub", func() solver.Solver {
			builtA.Add(1)
			return &stubSolver{name: "stub"}
		})
		reg.Register("other", func() solver.Solver {
			builtB.Add(1)
			return &stubSolver{name: "other"}
		})
		ecfg.Registry = reg
	})
	sources := map[string]int{}
	for n := 0; n < 20; n++ {
		// Every third request is a new instance; the rest repeat one of the
		// first two, so the run mixes fresh solves and cache hits.
		req := SolveRequest{Instance: core.NewInstance([]float64{0.3, 0.7}, []float64{float64(n%2+1) / 10})}
		if n%3 == 2 {
			req.Instance = core.NewInstance([]float64{0.3, 0.7}, []float64{0.5, float64(n) / 40})
		}
		if n%4 >= 2 {
			req.Solver = "other"
		}
		resp, body := postJSON(t, ts.URL+"/v1/solve", req)
		var out SolveResponse
		if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%v): %s", n, resp.StatusCode, err, body)
		}
		sources[out.Source]++
	}
	if sources["cache"] == 0 || sources["solve"] == 0 {
		t.Fatalf("sources %v, want both cache hits and fresh solves", sources)
	}
	if a, b := builtA.Load(), builtB.Load(); a != 1 || b != 1 {
		t.Fatalf("factories ran %d (stub) and %d (other) times over 20 requests, want once each", a, b)
	}

	_, wantErr := reg.New("nope")
	for n := 0; n < 2; n++ {
		resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: testInstance(), Solver: "nope"})
		var got ErrorResponse
		if err := json.Unmarshal(body, &got); err != nil || resp.StatusCode != http.StatusBadRequest || got.Error != wantErr.Error() {
			t.Fatalf("unknown solver: status %d error %q (%v), want 400 %q", resp.StatusCode, got.Error, err, wantErr)
		}
	}
}

// randomFloat draws the floats the encoders must match encoding/json on:
// ordinary values, exponent-form ones, zeros of both signs, and rarely NaN
// or an infinity.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(40) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2, 3, 4:
		return 0
	case 5:
		return math.Copysign(0, -1)
	case 6:
		return math.Float64frombits(rng.Uint64())
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
}

// randomString draws strings over the characters encoding/json escapes,
// multi-byte runes, U+2028/U+2029 and invalid UTF-8.
func randomString(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return ""
	}
	pieces := []string{"a", "portfolio", "greedy-balance (via portfolio)", `"`, `\`, "<", ">", "&", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "世", "\u2028", "\u2029", "\xff", "\xe2\x80"}
	var b strings.Builder
	for n := rng.Intn(6); n >= 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func randomInt(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return 0
	}
	return int(rng.Int63()>>rng.Intn(63)) * (1 - 2*rng.Intn(2))
}

func randomTelemetry(rng *rand.Rand) *engine.Telemetry {
	if rng.Intn(4) == 0 {
		return nil
	}
	return &engine.Telemetry{
		Solver: randomString(rng), Tenant: randomString(rng), Winner: randomString(rng),
		Algorithm: randomString(rng), Source: randomString(rng),
		ElapsedMS: randomFloat(rng), QueueMS: randomFloat(rng),
		Nodes: int64(randomInt(rng)), Incumbents: int64(randomInt(rng)), KernelAllocs: int64(randomInt(rng)),
		AllocsPerNode: randomFloat(rng), Makespan: randomInt(rng), LowerBound: randomInt(rng),
		LowerBoundKind: randomString(rng), Ratio: randomFloat(rng), Steps: randomInt(rng),
		Wasted: randomFloat(rng), Properties: randomString(rng),
		WarmStart: randomString(rng), SeedMakespan: randomInt(rng),
	}
}

func randomSchedule(rng *rand.Rand) *core.Schedule {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return &core.Schedule{}
	}
	s := &core.Schedule{Alloc: make([][]float64, rng.Intn(4))}
	for t := range s.Alloc {
		if rng.Intn(5) == 0 {
			continue // a null row
		}
		s.Alloc[t] = make([]float64, rng.Intn(4))
		for i := range s.Alloc[t] {
			s.Alloc[t][i] = randomFloat(rng)
		}
	}
	return s
}

// checkEncoder holds an append encoder to json.Encoder: the same bytes,
// trailing newline included, or a refusal exactly when encoding/json fails.
func checkEncoder(t *testing.T, v interface {
	AppendJSON([]byte) ([]byte, bool)
}) {
	t.Helper()
	var want bytes.Buffer
	err := json.NewEncoder(&want).Encode(v)
	got, ok := v.AppendJSON([]byte("prefix"))
	if ok != (err == nil) {
		t.Fatalf("%+v: AppendJSON ok = %v, encoding/json error %v", v, ok, err)
	}
	if ok && string(got) != "prefix"+strings.TrimSuffix(want.String(), "\n") {
		t.Fatalf("AppendJSON = %s\nencoding/json %s", got[len("prefix"):], want.Bytes())
	}
}

// TestResponseEncodersMatchEncodingJSON compares the append encoders with
// json.Encoder on random responses, NaN and infinities included.
func TestResponseEncodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		if tel := randomTelemetry(rng); tel != nil {
			checkEncoder(t, tel)
		}
		checkEncoder(t, &SolveResponse{
			Solver: randomString(rng), Algorithm: randomString(rng), Source: randomString(rng),
			Fingerprint: randomString(rng), Makespan: randomInt(rng), LowerBound: randomInt(rng),
			Ratio: randomFloat(rng), Wasted: randomFloat(rng), Properties: randomString(rng),
			ElapsedMS: randomFloat(rng), Telemetry: randomTelemetry(rng), Schedule: randomSchedule(rng),
		})
		batch := &BatchResponse{
			Solver: randomString(rng), Count: randomInt(rng), Solved: randomInt(rng),
			Failed: randomInt(rng), Cancelled: randomInt(rng), Shed: randomInt(rng),
		}
		if rng.Intn(5) > 0 {
			batch.Results = make([]BatchResult, rng.Intn(4))
		}
		for j := range batch.Results {
			batch.Results[j] = BatchResult{
				Index: randomInt(rng), Makespan: randomInt(rng), Wasted: randomFloat(rng),
				Algorithm: randomString(rng), Source: randomString(rng), ElapsedMS: randomFloat(rng),
				Telemetry: randomTelemetry(rng), Error: randomString(rng),
				Cancelled: rng.Intn(2) == 0, Shed: rng.Intn(2) == 0,
			}
		}
		checkEncoder(t, batch)
	}
}

// TestRespondFallsBackOnNonFinite: a response holding a NaN goes down the
// json.Encoder path, which refuses it, so the client gets the status line
// alone as before.
func TestRespondFallsBackOnNonFinite(t *testing.T) {
	srv, _ := newTestServer(t, &stubSolver{name: "stub"}, nil)
	w := &recordingWriter{header: http.Header{}}
	srv.respond(w, http.StatusOK, &SolveResponse{Solver: "stub", Ratio: math.NaN()})
	if w.status != http.StatusOK || w.body.Len() != 0 || w.header.Get("Content-Length") != "" {
		t.Fatalf("status %d, body %q, Content-Length %q; want 200 with no body", w.status, w.body.Bytes(), w.header.Get("Content-Length"))
	}
}
