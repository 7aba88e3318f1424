package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/service"
	"crsharing/internal/wire"
)

// refOutcome is a sub-batch outcome as the typed merge held it: the whole
// response decoded into service types.
type refOutcome struct {
	backend    string
	indices    []int
	resp       *service.BatchResponse
	status     int
	retryAfter string
	err        error
}

// refMerge is the typed decode/re-encode merge that result splicing
// replaced, kept verbatim as the reference for byte identity.
func refMerge(n int, outs []refOutcome) (body []byte, status int, retryAfterHeader string) {
	merged := service.BatchResponse{
		Count:   n,
		Results: make([]service.BatchResult, n),
	}
	allShed := true
	retryAfter := 0
	for _, out := range outs {
		switch {
		case out.err != nil:
			allShed = false
			for _, idx := range out.indices {
				merged.Failed++
				merged.Results[idx] = service.BatchResult{
					Index: idx,
					Error: fmt.Sprintf("backend %s: %v", out.backend, out.err),
				}
			}
		default:
			merged.Solver = out.resp.Solver
			if out.status != http.StatusTooManyRequests || out.resp.Shed != len(out.indices) {
				allShed = false
			}
			if secs, err := strconv.Atoi(out.retryAfter); err == nil && secs > retryAfter {
				retryAfter = secs
			}
			merged.Solved += out.resp.Solved
			merged.Failed += out.resp.Failed
			merged.Cancelled += out.resp.Cancelled
			merged.Shed += out.resp.Shed
			for _, res := range out.resp.Results {
				if res.Index < 0 || res.Index >= len(out.indices) {
					continue // a malformed backend response cannot corrupt others
				}
				orig := out.indices[res.Index]
				res.Index = orig
				merged.Results[orig] = res
			}
		}
	}
	status = http.StatusOK
	if allShed {
		if retryAfter < 1 {
			retryAfter = 1
		}
		retryAfterHeader = strconv.Itoa(retryAfter)
		status = http.StatusTooManyRequests
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(merged)
	return buf.Bytes(), status, retryAfterHeader
}

// subFixture is one sub-batch's round trip as the backend answered it.
type subFixture struct {
	indices    []int
	body       []byte // the backend's response body; ignored when err is set
	status     int
	retryAfter string
	err        error // a transport error
}

// mergeBoth merges the same sub-batch round trips with mergeBatch and with
// the reference, and fails unless body, status and Retry-After agree.
func mergeBoth(t *testing.T, n int, subs []subFixture) []byte {
	t.Helper()
	outs := make([]subOutcome, len(subs))
	refs := make([]refOutcome, len(subs))
	for i, sub := range subs {
		backend := fmt.Sprintf("http://backend-%d", i)
		outs[i] = subOutcome{backend: backend, indices: sub.indices, status: sub.status, retryAfter: sub.retryAfter, err: sub.err}
		refs[i] = refOutcome{backend: backend, indices: sub.indices, status: sub.status, retryAfter: sub.retryAfter, err: sub.err}
		if sub.err != nil {
			continue
		}
		if err := json.Unmarshal(sub.body, &outs[i].resp); err != nil {
			t.Fatalf("sub-response %d: %v", i, err)
		}
		refs[i].resp = new(service.BatchResponse)
		if err := json.Unmarshal(sub.body, refs[i].resp); err != nil {
			t.Fatalf("sub-response %d (typed): %v", i, err)
		}
	}
	got, status, retryAfter := mergeBatch(nil, n, outs)
	want, wantStatus, wantRetryAfter := refMerge(n, refs)
	if !bytes.Equal(got, want) {
		t.Fatalf("merged body differs from the typed merge:\n got %s\nwant %s", got, want)
	}
	gotRetryAfter := ""
	if status == http.StatusTooManyRequests {
		gotRetryAfter = strconv.Itoa(retryAfter)
	}
	if status != wantStatus || gotRetryAfter != wantRetryAfter {
		t.Fatalf("status %d Retry-After %q, typed merge %d %q", status, gotRetryAfter, wantStatus, wantRetryAfter)
	}
	return got
}

// encodeResponse encodes a batch response as the service does.
func encodeResponse(t *testing.T, br service.BatchResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(br); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postBatch posts instances straight to a backend and returns its body.
func postBatch(t *testing.T, url string, req service.BatchRequest) []byte {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch-solve", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("backend batch status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestMergeMatchesTypedMerge holds the spliced merge to the typed
// decode/re-encode merge, byte for byte, on real backend responses and on
// synthetic ones that exercise every result field, HTML-escaped and
// non-ASCII strings, float formats, duplicate and out-of-range results,
// transport failures and full sheds. The two cases where the merge departs
// from the typed one, refused sub-batches and missing results, have tests
// of their own below.
func TestMergeMatchesTypedMerge(t *testing.T) {
	a := newBackend(t, false)
	insts := testInstances(6)
	fresh := postBatch(t, a.ts.URL, service.BatchRequest{Instances: insts[:4], Timeout: "2s"})
	hits := postBatch(t, a.ts.URL, service.BatchRequest{Instances: insts[:2]})

	tel := &engine.Telemetry{
		Solver: "portfolio", Tenant: "gold <&>", Winner: "greedy-balance", Algorithm: "greedy-balance (via portfolio)",
		Source: "cache", ElapsedMS: 0.1234567, QueueMS: 1e-7, Nodes: 12, Incumbents: 3,
		KernelAllocs: 5, AllocsPerNode: 1.0 / 3, Makespan: 7, LowerBound: 6, LowerBoundKind: "work",
		Ratio: 7.0 / 6, Steps: 7, Wasted: 1e21, Properties: "non-wasting,progressive", WarmStart: "request", SeedMakespan: 8,
	}
	synthetic := encodeResponse(t, service.BatchResponse{
		Solver: "portfolio", Count: 5, Solved: 2, Failed: 1, Cancelled: 1, Shed: 1,
		Results: []service.BatchResult{
			{Index: 1, Makespan: 7, Wasted: 2.5e-9, Algorithm: "x", Source: "cache", ElapsedMS: 3, Telemetry: tel},
			{Index: 0, Error: "core: job (1,2): requirement 1.5 outside [0,1] — ünïcode   \"quoted\""},
			{Index: 2, Error: "context deadline exceeded", Cancelled: true},
			{Index: 3, Error: "tenant over quota", Shed: true},
			{Index: 1, Makespan: 9}, // a duplicate: the later one wins
			{Index: 9, Makespan: 4}, // out of range: dropped
			{Index: -1},             // out of range: dropped
			{Index: 4, Makespan: 5},
		},
	})

	mergeBoth(t, 6, []subFixture{
		{indices: []int{5, 0, 2, 3}, body: fresh, status: http.StatusOK},
		{indices: []int{4, 1}, body: hits, status: http.StatusOK},
	})
	mergeBoth(t, 9, []subFixture{
		{indices: []int{8, 6, 4, 2, 0}, body: synthetic, status: http.StatusOK, retryAfter: "4"},
		{indices: []int{1, 3, 5, 7}, body: fresh, status: http.StatusOK},
	})
	mergeBoth(t, 7, []subFixture{
		{indices: []int{0, 2, 4}, err: errors.New(`dial tcp: connection refused <"&">`)},
		{indices: []int{1, 3, 5, 6}, body: fresh, status: http.StatusOK},
	})

	shed := func(n int) []byte {
		br := service.BatchResponse{Solver: "stub", Count: n, Shed: n}
		for i := 0; i < n; i++ {
			br.Results = append(br.Results, service.BatchResult{Index: i, Error: "shed", Shed: true})
		}
		return encodeResponse(t, br)
	}
	for _, retry := range [][2]string{{"3", "5"}, {"", "0"}, {"x", ""}} {
		mergeBoth(t, 3, []subFixture{
			{indices: []int{2}, body: shed(1), status: http.StatusTooManyRequests, retryAfter: retry[0]},
			{indices: []int{0, 1}, body: shed(2), status: http.StatusTooManyRequests, retryAfter: retry[1]},
		})
	}
	// A partial shed, and a full shed answered 200, stay 200.
	mergeBoth(t, 3, []subFixture{
		{indices: []int{2}, body: shed(1), status: http.StatusTooManyRequests, retryAfter: "2"},
		{indices: []int{0, 1}, body: shed(2), status: http.StatusOK},
	})
}

// mergeFixtures merges sub-batch round trips the way handleBatch does.
func mergeFixtures(t *testing.T, n int, subs []subFixture) (service.BatchResponse, []byte, int) {
	t.Helper()
	outs := make([]subOutcome, len(subs))
	for i, sub := range subs {
		outs[i] = subOutcome{backend: fmt.Sprintf("http://backend-%d", i), indices: sub.indices, status: sub.status, retryAfter: sub.retryAfter, err: sub.err}
		if sub.err == nil {
			if err := json.Unmarshal(sub.body, &outs[i].resp); err != nil {
				t.Fatalf("sub-response %d: %v", i, err)
			}
		}
	}
	body, status, _ := mergeBatch(nil, n, outs)
	var br service.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("merged body is not valid JSON: %v\n%s", err, body)
	}
	return br, body, status
}

// TestMergeRefusedSubBatches: a sub-batch its backend answered with a
// non-2xx status (other than a 429 that shed all of it) fails each of its
// instances under its own index with the backend's error, like a transport
// failure, and when every sub-batch was refused with the same 4xx the
// batch is answered with that status and error, as a batch one backend
// owns is.
func TestMergeRefusedSubBatches(t *testing.T) {
	unknown := []byte(`{"error":"unknown solver \"nope\""}` + "\n")
	ok := encodeResponse(t, service.BatchResponse{Solver: "stub", Count: 1, Solved: 1,
		Results: []service.BatchResult{{Index: 0, Makespan: 3}}})

	_, body, status := mergeFixtures(t, 3, []subFixture{
		{indices: []int{2}, body: unknown, status: http.StatusBadRequest},
		{indices: []int{0, 1}, body: unknown, status: http.StatusBadRequest},
	})
	if status != http.StatusBadRequest || string(body) != string(unknown) {
		t.Fatalf("all refused 400: status %d body %s, want 400 %s", status, body, unknown)
	}
	// A refusal without an error message still answers its status.
	_, body, status = mergeFixtures(t, 3, []subFixture{
		{indices: []int{2}, body: []byte(`{}`), status: http.StatusForbidden},
		{indices: []int{0, 1}, body: []byte(`{}`), status: http.StatusForbidden},
	})
	if status != http.StatusForbidden || !strings.Contains(string(body), `"error":"status 403 Forbidden"`) {
		t.Fatalf("all refused 403: status %d body %s", status, body)
	}

	for name, subs := range map[string][]subFixture{
		"one refused": {
			{indices: []int{2, 0}, body: unknown, status: http.StatusBadRequest},
			{indices: []int{1}, body: ok, status: http.StatusOK},
		},
		"different statuses": {
			{indices: []int{2, 0}, body: unknown, status: http.StatusBadRequest},
			{indices: []int{1}, body: []byte(`{"error":"draining"}`), status: http.StatusServiceUnavailable},
		},
		"all 5xx": {
			{indices: []int{2, 0}, body: unknown, status: http.StatusInternalServerError},
			{indices: []int{1}, body: unknown, status: http.StatusInternalServerError},
		},
		"a partial shed answered 429": {
			{indices: []int{2, 0}, body: encodeResponse(t, service.BatchResponse{Solver: "stub", Count: 2, Shed: 1, Solved: 1}), status: http.StatusTooManyRequests},
			{indices: []int{1}, body: ok, status: http.StatusOK},
		},
	} {
		br, body, status := mergeFixtures(t, 3, subs)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, want 200\n%s", name, status, body)
		}
		failed := 0
		for i, res := range br.Results {
			if res.Index != i {
				t.Fatalf("%s: result %d carries index %d\n%s", name, i, res.Index, body)
			}
			if i != 1 && !strings.HasPrefix(res.Error, "backend http://backend-0: ") {
				t.Fatalf("%s: result %d error %q, want the refusing backend's\n%s", name, i, res.Error, body)
			}
			if res.Error != "" {
				failed++
			}
		}
		if br.Failed != failed {
			t.Fatalf("%s: failed %d, want %d\n%s", name, br.Failed, failed, body)
		}
	}
}

// TestMergeMissingResult: an instance no result came back for carries its
// own index and an error naming its backend, not the zero result's
// {"index":0}.
func TestMergeMissingResult(t *testing.T) {
	partial := encodeResponse(t, service.BatchResponse{Solver: "stub", Count: 2, Solved: 2,
		Results: []service.BatchResult{{Index: 1, Makespan: 4}}})
	ok := encodeResponse(t, service.BatchResponse{Solver: "stub", Count: 1, Solved: 1,
		Results: []service.BatchResult{{Index: 0, Makespan: 3}}})
	br, body, status := mergeFixtures(t, 3, []subFixture{
		{indices: []int{2, 1}, body: partial, status: http.StatusOK},
		{indices: []int{0}, body: ok, status: http.StatusOK},
	})
	if status != http.StatusOK || br.Solved != 3 {
		t.Fatalf("status %d, counts %+v", status, br)
	}
	want := []service.BatchResult{
		{Index: 0, Makespan: 3},
		{Index: 1, Makespan: 4},
		{Index: 2, Error: "backend http://backend-0: no result for this instance"},
	}
	for i := range want {
		if br.Results[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v\n%s", i, br.Results[i], want[i], body)
		}
	}
}

// TestBatchResultLeadsWithIndex pins the encoding contract the splice relies
// on: every encoded BatchResult opens with {"index":, and a BatchResponse
// without results ends with "results":null}.
func TestBatchResultLeadsWithIndex(t *testing.T) {
	for _, res := range []service.BatchResult{
		{},
		{Index: 12, Makespan: 3, Wasted: 0.5, Algorithm: "a", Source: "cache", ElapsedMS: 1, Telemetry: &engine.Telemetry{}},
		{Index: 3, Error: "e", Cancelled: true, Shed: true},
	} {
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		index, _, ok := splitResult(raw)
		if !strings.HasPrefix(string(raw), resultPrefix) || !ok || index != res.Index {
			t.Fatalf("encoded BatchResult %s does not lead with %s%d", raw, resultPrefix, res.Index)
		}
	}
	raw, err := json.Marshal(service.BatchResponse{Solver: "s", Count: 1, Shed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(raw), `"results":null}`) {
		t.Fatalf("encoded BatchResponse %s does not end with its results", raw)
	}
}

// TestMalformedResultCannotCorruptSiblings: results without the index prefix
// or with an index outside their sub-batch are dropped, and every
// well-formed result still lands under its own original index.
func TestMalformedResultCannotCorruptSiblings(t *testing.T) {
	bad := []byte(`{"solver":"stub","solved":3,"results":[` +
		`{"makespan":66,"index":0},` + // index not first
		`{ "index":0,"makespan":66},` + // not the encoder's bytes
		`{"index":1.5,"makespan":66},` +
		`{"index":1e0,"makespan":66},` +
		`{"index":-1,"makespan":66},` +
		`{"index":2,"makespan":66},` + // outside the two-instance sub-batch
		`{"index":99999999999999999999,"makespan":66},` +
		`null,"index",[1],` +
		`{"index":1,"makespan":11}]}`)
	good := []byte(`{"solver":"stub","solved":2,"results":[{"index":0,"makespan":20},{"index":1,"makespan":21}]}`)
	var outs [2]subOutcome
	outs[0] = subOutcome{indices: []int{3, 0}, status: http.StatusOK}
	outs[1] = subOutcome{indices: []int{1, 2}, status: http.StatusOK}
	for i, body := range [][]byte{bad, good} {
		if err := json.Unmarshal(body, &outs[i].resp); err != nil {
			t.Fatal(err)
		}
	}
	merged, status, _ := mergeBatch(nil, 4, outs[:])
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var br service.BatchResponse
	if err := json.Unmarshal(merged, &br); err != nil {
		t.Fatalf("merged body is not valid JSON: %v\n%s", err, merged)
	}
	want := []service.BatchResult{
		{Index: 0, Makespan: 11}, // the bad sub-batch's one well-formed result
		{Index: 1, Makespan: 20},
		{Index: 2, Makespan: 21},
		{Index: 3, Error: "backend : no result for this instance"}, // its only results were malformed
	}
	for i := range want {
		got := br.Results[i]
		if got.Index != want[i].Index || got.Makespan != want[i].Makespan || got.Error != want[i].Error {
			t.Fatalf("slot %d = %+v, want %+v\n%s", i, got, want[i], merged)
		}
	}
	if br.Count != 4 || br.Solved != 5 {
		t.Fatalf("merged counts %+v", br)
	}
}

// TestReadSizedBoundsPreallocation: a body of its declared length lands in
// one exactly sized buffer; a lying Content-Length reserves at most
// wire.MaxPrealloc; undeclared and over-long bodies are read whole.
func TestReadSizedBoundsPreallocation(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 1000)
	// net/http's bodies report EOF with their last bytes, as DataErrReader does.
	exact, err := wire.ReadSized(nil, iotest.DataErrReader(iotest.HalfReader(bytes.NewReader(body))), int64(len(body)))
	if err != nil || !bytes.Equal(exact, body) {
		t.Fatalf("exact: err=%v, %d bytes", err, len(exact))
	}
	if cap(exact) != len(body) {
		t.Fatalf("exact: cap %d for a %d-byte body, want one exactly sized buffer", cap(exact), len(body))
	}
	lying, err := wire.ReadSized(nil, bytes.NewReader(body[:10]), 32<<20)
	if err != nil || !bytes.Equal(lying, body[:10]) {
		t.Fatalf("lying: err=%v, %q", err, lying)
	}
	if cap(lying) > wire.MaxPrealloc {
		t.Fatalf("lying: a 32 MiB Content-Length reserved %d bytes, want at most %d", cap(lying), wire.MaxPrealloc)
	}
	for _, declared := range []int64{-1, 0, 100} {
		got, err := wire.ReadSized(nil, iotest.OneByteReader(bytes.NewReader(body)), declared)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("declared %d: err=%v, %d of %d bytes", declared, err, len(got), len(body))
		}
	}
	if _, err := wire.ReadSized(nil, iotest.ErrReader(io.ErrUnexpectedEOF), 10); err != io.ErrUnexpectedEOF {
		t.Fatalf("read error %v, want it passed through", err)
	}
}

// TestRouterBatchForwardsInstanceBytes: the sub-batches carry the client's
// instance bytes verbatim (whitespace and key spelling included), and the
// merged answer matches a direct batch solve.
func TestRouterBatchForwardsInstanceBytes(t *testing.T) {
	a, b := newBackend(t, false), newBackend(t, false)
	rt, rts := newRouter(t, Config{}, a, b)
	insts := spanningInstances(t, rt, 8)
	var body bytes.Buffer
	body.WriteString(`{"Instances": [`)
	var spans [][]byte
	for i, inst := range insts {
		raw, err := json.MarshalIndent(inst, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			body.WriteString(" ,\n")
		}
		body.Write(raw)
		spans = append(spans, raw)
	}
	body.WriteString(`], "timeout": "2s"}`)

	var req batchRequest
	if err := json.Unmarshal(body.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	for i, ri := range req.Instances {
		if !bytes.Equal(ri.raw, spans[i]) || ri.key != insts[i].Fingerprint().Uint64() {
			t.Fatalf("instance %d: span %q, want the client's %q", i, ri.raw, spans[i])
		}
	}
	sub := subBatchEnvelope("stub", "2s").appendBody(nil, req.Instances, []int{3, 1})
	want := `{"solver":"stub","instances":[` + string(spans[3]) + `,` + string(spans[1]) + `],"timeout":"2s"}`
	if string(sub) != want {
		t.Fatalf("sub-batch body %s, want %s", sub, want)
	}
	if got := subBatchEnvelope("", "").appendBody(nil, req.Instances, []int{0}); string(got) != `{"instances":[`+string(spans[0])+`]}` {
		t.Fatalf("sub-batch body without envelope fields: %s", got)
	}

	resp, err := http.Post(rts.URL+"/v1/batch-solve", "application/json", bytes.NewReader(body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br service.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v", resp.StatusCode, err)
	}
	direct := postBatch(t, a.ts.URL, service.BatchRequest{Instances: insts})
	var dr service.BatchResponse
	if err := json.Unmarshal(direct, &dr); err != nil {
		t.Fatal(err)
	}
	for i := range insts {
		if br.Results[i].Index != i || br.Results[i].Makespan != dr.Results[i].Makespan || br.Results[i].Error != "" {
			t.Fatalf("result %d: %+v, direct %+v", i, br.Results[i], dr.Results[i])
		}
	}
	if a.freshSolves() == 0 || b.freshSolves() == 0 {
		t.Fatal("the batch did not split across both backends")
	}
}

// cuttingBackend fronts a backend's handler, records every batch
// sub-response it produces by the sub-batch body that asked for it, and
// cuts a seeded share of them mid-response: it announces the whole body,
// sends half of it and drops the connection.
type cuttingBackend struct {
	inner http.Handler

	mu   sync.Mutex
	rng  *rand.Rand // nil: never cut
	subs map[string]recordedSub
}

type recordedSub struct {
	body       []byte
	status     int
	retryAfter string
	cut        bool
}

func (cb *cuttingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	cb.inner.ServeHTTP(rec, r)
	sub := recordedSub{body: rec.Body.Bytes(), status: rec.Code, retryAfter: rec.Header().Get("Retry-After")}
	cb.mu.Lock()
	sub.cut = cb.rng != nil && r.URL.Path == "/v1/batch-solve" && cb.rng.Intn(4) == 0
	cb.subs[string(body)] = sub
	cb.mu.Unlock()
	if !sub.cut {
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		w.Write(sub.body)
		return
	}
	conn, bw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		panic(err)
	}
	defer conn.Close()
	fmt.Fprintf(bw, "HTTP/1.1 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		sub.status, http.StatusText(sub.status), len(sub.body))
	bw.Write(sub.body[:len(sub.body)/2])
	bw.Flush()
}

// TestRouterBatchBuffersUnderConcurrency pushes 256 split batches of
// distinct instances through a two-backend router at once, one backend
// cutting a seeded quarter of its sub-responses mid-response, under the
// race detector in CI. Each merged body must be byte for byte what
// mergeBatch builds from the sub-responses the backends produced for that
// batch's own sub-batches: a body, sub-batch or response buffer recycled
// while still in use, or shared between batches, shows up as a wrong byte
// or a sub-batch body no backend saw. A cut sub-batch must degrade to
// per-instance errors naming its backend.
func TestRouterBatchBuffersUnderConcurrency(t *testing.T) {
	const batches, size = 256, 8
	a, b := newBackend(t, false), newBackend(t, false)
	fronts := []*cuttingBackend{
		{inner: a.ts.Config.Handler, subs: map[string]recordedSub{}},
		{inner: b.ts.Config.Handler, subs: map[string]recordedSub{}, rng: rand.New(rand.NewSource(39))},
	}
	var fixtures []*backendFixture
	for _, f := range fronts {
		ts := httptest.NewServer(f)
		t.Cleanup(ts.Close)
		fixtures = append(fixtures, &backendFixture{ts: ts})
	}
	rt, rts := newRouter(t, Config{}, fixtures...)

	// Deal distinct instances into batches that each span both backends.
	rng := rand.New(rand.NewSource(7))
	byOwner := map[string][]*core.Instance{}
	for len(byOwner[fixtures[0].ts.URL]) < batches*size || len(byOwner[fixtures[1].ts.URL]) < batches*size {
		row := func() []float64 {
			reqs := make([]float64, 1+rng.Intn(3))
			for k := range reqs {
				reqs[k] = 0.05 + 0.95*rng.Float64()
			}
			return reqs
		}
		inst := core.NewInstance(row(), row())
		if rng.Intn(2) == 0 {
			inst = core.NewInstance(row(), row(), row())
		}
		_, owner := rt.pick(inst.Fingerprint().Uint64(), "")
		byOwner[owner] = append(byOwner[owner], inst)
	}
	reqs := make([][]*core.Instance, batches)
	for i := range reqs {
		onA := 1 + rng.Intn(size-1)
		for k, owner := range []string{fixtures[0].ts.URL, fixtures[1].ts.URL} {
			n := []int{onA, size - onA}[k]
			reqs[i] = append(reqs[i], byOwner[owner][:n]...)
			byOwner[owner] = byOwner[owner][n:]
		}
		rng.Shuffle(size, func(x, y int) { reqs[i][x], reqs[i][y] = reqs[i][y], reqs[i][x] })
	}

	type answer struct {
		body   []byte
		status int
		err    error
	}
	answers := make([]answer, batches)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, err := json.Marshal(service.BatchRequest{Instances: reqs[i], Timeout: "5s"})
			if err != nil {
				answers[i].err = err
				return
			}
			<-start
			resp, err := http.Post(rts.URL+"/v1/batch-solve", "application/json", bytes.NewReader(raw))
			if err != nil {
				answers[i].err = err
				return
			}
			defer resp.Body.Close()
			answers[i].body, answers[i].err = io.ReadAll(resp.Body)
			answers[i].status = resp.StatusCode
		}(i)
	}
	close(start)
	wg.Wait()

	cuts := 0
	for i, ans := range answers {
		if ans.err != nil {
			t.Fatalf("batch %d: %v", i, ans.err)
		}
		var merged service.BatchResponse
		if err := json.Unmarshal(ans.body, &merged); err != nil || len(merged.Results) != size {
			t.Fatalf("batch %d: answer %s (%v)", i, ans.body, err)
		}
		insts := make([]rawInstance, size)
		for k, inst := range reqs[i] {
			raw, err := json.Marshal(inst)
			if err != nil {
				t.Fatal(err)
			}
			insts[k] = rawInstance{raw: raw}
		}
		// The router sends the sub-batches in the order the batch first
		// routes to their backends.
		var outs []subOutcome
		for k, inst := range reqs[i] {
			target, _ := rt.pick(inst.Fingerprint().Uint64(), "")
			gi := slices.IndexFunc(outs, func(o subOutcome) bool { return o.backend == target })
			if gi < 0 {
				gi = len(outs)
				outs = append(outs, subOutcome{backend: target})
			}
			outs[gi].indices = append(outs[gi].indices, k)
		}
		for gi := range outs {
			o := &outs[gi]
			front := fronts[slices.IndexFunc(fixtures, func(fx *backendFixture) bool { return fx.ts.URL == o.backend })]
			front.mu.Lock()
			sub, ok := front.subs[string(subBatchEnvelope("", "5s").appendBody(nil, insts, o.indices))]
			front.mu.Unlock()
			if !ok {
				t.Fatalf("batch %d: %s never received this batch's sub-batch", i, o.backend)
			}
			o.status, o.retryAfter = sub.status, sub.retryAfter
			if sub.cut {
				cuts++
				msg := merged.Results[o.indices[0]].Error
				prefix := "backend " + o.backend + ": "
				if !strings.HasPrefix(msg, prefix) || !strings.Contains(msg, "EOF") {
					t.Fatalf("batch %d: cut sub-batch answered %q, want a transport error from %s", i, msg, o.backend)
				}
				o.err = errors.New(strings.TrimPrefix(msg, prefix))
			} else if !o.resp.decodeCanonical(sub.body) {
				if err := json.Unmarshal(sub.body, &o.resp); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, status, _ := mergeBatch(nil, size, outs)
		if !bytes.Equal(ans.body, want) || ans.status != status {
			t.Fatalf("batch %d: router answered %d %s\nmergeBatch of its sub-responses gives %d %s", i, ans.status, ans.body, status, want)
		}
	}
	if cuts == 0 || cuts == batches {
		t.Fatalf("%d of %d batches had a cut sub-batch; the test needs some of each", cuts, batches)
	}
}

// TestRouterBatchUnknownSolver: a batch that splits across backends which
// all refuse its solver is answered as a backend answers it whole: 400 with
// the backend's error, not 200 with empty results.
func TestRouterBatchUnknownSolver(t *testing.T) {
	a, b := newBackend(t, false), newBackend(t, false)
	rt, rts := newRouter(t, Config{}, a, b)
	raw, err := json.Marshal(service.BatchRequest{Solver: "nope", Instances: spanningInstances(t, rt, 8)})
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string) (int, string) {
		resp, err := http.Post(url+"/v1/batch-solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	status, body := post(rts.URL)
	directStatus, directBody := post(a.ts.URL)
	if directStatus != http.StatusBadRequest || !strings.Contains(directBody, "unknown solver") {
		t.Fatalf("backend answered %d %s, want 400 unknown solver", directStatus, directBody)
	}
	if status != directStatus || body != directBody {
		t.Fatalf("router answered %d %s, backend %d %s", status, body, directStatus, directBody)
	}
	if rt.m.batchSplits.Load() == 0 {
		t.Fatal("the batch did not split across both backends")
	}
}

// TestRouterBatchRejectsInvalidInstances: decoding validates, so an
// out-of-domain or null instance is refused before anything is routed.
func TestRouterBatchRejectsInvalidInstances(t *testing.T) {
	a, b := newBackend(t, false), newBackend(t, false)
	_, rts := newRouter(t, Config{}, a, b)
	for body, want := range map[string]string{
		`{"instances":[{"procs":[[{"req":1.5,"size":1}]]}]}`:      "parsing request",
		`{"instances":[{"procs":[[{"req":0.5,"size":1}]]},null]}`: "instance 1 is null",
		`{"instances":[]}`: "missing instances",
	} {
		resp, err := http.Post(rts.URL+"/v1/batch-solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), want) {
			t.Fatalf("%s: status %d body %s, want 400 %q", body, resp.StatusCode, data, want)
		}
	}
	if a.freshSolves()+b.freshSolves() != 0 {
		t.Fatal("an invalid batch reached a backend")
	}
}

// BenchmarkRouterBatchSplit posts an 8-instance batch that splits over two
// backends, every instance a cache hit: the router's decode, split, forward
// and merge plus both backends' hits, in one process.
func BenchmarkRouterBatchSplit(b *testing.B) {
	rt, rts := newRouter(b, Config{}, newBackend(b, false), newBackend(b, false))
	raw, err := json.Marshal(service.BatchRequest{Instances: spanningInstances(b, rt, 8), Timeout: "2s"})
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		resp, err := http.Post(rts.URL+"/v1/batch-solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // warm both caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

// BenchmarkRouterBatchSplitFresh is BenchmarkRouterBatchSplit shaped like
// servebench's fleet-batch: seven cached instances and one instance no
// backend has seen, on two or three processors, per batch, so the router's
// miss path (a backend's lone fresh solve) is measured too.
func BenchmarkRouterBatchSplitFresh(b *testing.B) {
	rt, rts := newRouter(b, Config{}, newBackend(b, false), newBackend(b, false))
	cached := spanningInstances(b, rt, 7)
	insts := append(cached, nil)
	fresh := func(i int) *core.Instance {
		a, c := float64(i%1000+1)/1002, float64(i/1000%1000+1)/1002
		if i%2 == 0 {
			return core.NewInstance([]float64{a, 0.5}, []float64{c})
		}
		return core.NewInstance([]float64{a}, []float64{c, 0.25}, []float64{0.75})
	}
	post := func(i int) {
		insts[len(insts)-1] = fresh(i)
		raw, err := json.Marshal(service.BatchRequest{Instances: insts, Timeout: "2s"})
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(rts.URL+"/v1/batch-solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post(-1) // warm both caches with the cached instances
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(i)
	}
}

// BenchmarkRouterPassthrough posts a cached solve through a one-backend
// router: decode, route and the verbatim copy of the backend's response,
// which carries a Content-Length.
func BenchmarkRouterPassthrough(b *testing.B) {
	_, rts := newRouter(b, Config{}, newBackend(b, false))
	raw, err := json.Marshal(service.SolveRequest{Instance: testInstances(1)[0], IncludeSchedule: true})
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		resp, err := http.Post(rts.URL+"/v1/solve", "application/json", bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
