package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"crsharing/internal/core"
	"crsharing/internal/service"
	"crsharing/internal/wire"
)

// The batch path moves each instance through the router once: the router
// decodes the client's body only to fingerprint the instances, forwards
// each instance's bytes to its owner unchanged, decodes the backends'
// responses only at the envelope, and splices their results into the merged
// body under the original indices. Nothing is re-encoded on the way.
//
// Every body on the way lives in a wire.GetBuffer buffer: the client's, each
// sub-batch's, each sub-response and the merged body. The instances' bytes
// alias the client's body and the results alias the sub-responses, so those
// buffers go back to the pool only after the merged body is written. A
// sub-batch body goes back once its backend has answered it (see
// sendSubBatch), and a client body handed whole to route never does.

// batchRequest is the router's view of a POST /v1/batch-solve body
// (service.BatchRequest): the envelope it forwards and every instance as
// the client's bytes beside their routing key.
type batchRequest struct {
	Solver    string        `json:"solver,omitempty"`
	Instances []rawInstance `json:"instances"`
	Timeout   string        `json:"timeout,omitempty"`
}

// rawInstance is one instance of a batch: the client's bytes, forwarded as
// they are, and the ring key of its fingerprint. Decoding validates the
// instance and keeps nothing else of it. json.Unmarshal hands UnmarshalJSON
// a sub-slice of its input, so raw aliases the request body, which the
// handler holds until the merged body is written.
type rawInstance struct {
	raw []byte // the literal null for a JSON null, whose key is 0
	key uint64
}

func (ri *rawInstance) UnmarshalJSON(data []byte) error {
	ri.raw = data
	if ri.null() {
		return nil
	}
	var inst core.Instance
	if err := inst.UnmarshalJSON(data); err != nil {
		return err
	}
	ri.key = inst.Fingerprint().Uint64()
	return nil
}

// null reports whether the instance is a JSON null.
func (ri *rawInstance) null() bool { return string(ri.raw) == "null" }

// decodeCanonical decodes a canonical batch body (the form
// service.BatchRequest.DecodeCanonical takes) in one pass and reports
// whether it did; req is left as it was when it did not, and the caller
// then decodes the body with json.Unmarshal.
func (req *batchRequest) decodeCanonical(body []byte) bool {
	var out batchRequest
	var seen [3]bool // solver, instances, timeout
	first := func(i int) bool {
		ok := !seen[i]
		seen[i] = true
		return ok
	}
	sc := wire.NewScanner(body)
	ok := sc.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "solver":
			out.Solver, ok = sc.PlainString()
			return ok && first(0)
		case "instances":
			out.Instances, ok = parseRawInstances(&sc, body)
			return ok && first(1)
		case "timeout":
			out.Timeout, ok = sc.PlainString()
			return ok && first(2)
		}
		return false
	}) && sc.End()
	if ok {
		*req = out
	}
	return ok
}

// parseRawInstances parses an array of canonical instances, keeping each
// one's bytes and key; an empty array decodes to an empty, non-nil slice, as
// encoding/json decodes it. Every instance is decoded into one scratch
// instance, which lives only as long as the parse.
func parseRawInstances(sc *wire.Scanner, body []byte) ([]rawInstance, bool) {
	if !sc.Token("[") {
		return nil, false
	}
	insts := []rawInstance{}
	if sc.Token("]") {
		return insts, true
	}
	var scratch core.Instance
	for {
		sc.SkipSpace()
		start := sc.Pos()
		if !core.DecodeInstanceInto(sc, &scratch) {
			return nil, false
		}
		insts = append(insts, rawInstance{raw: body[start:sc.Pos()], key: scratch.Fingerprint().Uint64()})
		if sc.Token("]") {
			return insts, true
		}
		if !sc.Token(",") {
			return nil, false
		}
	}
}

// subResponse is a backend's batch response (service.BatchResponse) decoded
// at the envelope only: the counts the merge sums, and every result as the
// backend's bytes. Error is set instead when the backend refused the
// sub-batch (service.ErrorResponse).
type subResponse struct {
	Error     string    `json:"error"`
	Solver    string    `json:"solver"`
	Solved    int       `json:"solved"`
	Failed    int       `json:"failed"`
	Cancelled int       `json:"cancelled"`
	Shed      int       `json:"shed"`
	Results   []rawSpan `json:"results"`
}

// rawSpan keeps a JSON value's bytes: a sub-slice of the response body the
// sub-batch outcome holds in its buffer.
type rawSpan []byte

func (s *rawSpan) UnmarshalJSON(data []byte) error {
	*s = data
	return nil
}

// decodeCanonical decodes a backend's batch response in one pass when it
// holds only the keys service.BatchResponse and service.ErrorResponse
// encode, exactly cased and none twice, with plain strings, integer counts
// and no null, and reports whether it did; resp is left as it was when it
// did not, and the caller then decodes the body with json.Unmarshal.
func (resp *subResponse) decodeCanonical(data []byte) bool {
	var out subResponse
	var seen [8]bool // error, solver, count, solved, failed, cancelled, shed, results
	first := func(i int) bool {
		ok := !seen[i]
		seen[i] = true
		return ok
	}
	sc := wire.NewScanner(data)
	ok := sc.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "error":
			out.Error, ok = sc.PlainString()
			return ok && first(0)
		case "solver":
			out.Solver, ok = sc.PlainString()
			return ok && first(1)
		case "count":
			_, ok = sc.Int()
			return ok && first(2)
		case "solved":
			out.Solved, ok = sc.Int()
			return ok && first(3)
		case "failed":
			out.Failed, ok = sc.Int()
			return ok && first(4)
		case "cancelled":
			out.Cancelled, ok = sc.Int()
			return ok && first(5)
		case "shed":
			out.Shed, ok = sc.Int()
			return ok && first(6)
		case "results":
			out.Results, ok = parseSpans(&sc, data)
			return ok && first(7)
		}
		return false
	}) && sc.End()
	if ok {
		*resp = out
	}
	return ok
}

// parseSpans parses an array of any JSON values, keeping each one's bytes;
// an empty array decodes to an empty, non-nil slice, as encoding/json
// decodes it.
func parseSpans(sc *wire.Scanner, data []byte) ([]rawSpan, bool) {
	if !sc.Token("[") {
		return nil, false
	}
	spans := []rawSpan{}
	if sc.Token("]") {
		return spans, true
	}
	for {
		sc.SkipSpace()
		start := sc.Pos()
		if !sc.Skip() {
			return nil, false
		}
		spans = append(spans, data[start:sc.Pos()])
		if sc.Token("]") {
			return spans, true
		}
		if !sc.Token(",") {
			return nil, false
		}
	}
}

// resultPrefix opens every encoded service.BatchResult: Index is its first
// field and is never omitted.
const resultPrefix = `{"index":`

// splitResult splits a backend result into the index it leads with and the
// bytes after that number. ok is false for a result that does not lead with
// {"index":N followed by ',' or '}' — a malformed result.
func splitResult(res []byte) (index int, rest []byte, ok bool) {
	if len(res) < len(resultPrefix) || string(res[:len(resultPrefix)]) != resultPrefix {
		return 0, nil, false
	}
	num := res[len(resultPrefix):]
	end := 0
	if end < len(num) && num[end] == '-' {
		end++
	}
	for end < len(num) && '0' <= num[end] && num[end] <= '9' {
		end++
	}
	if end == len(num) || num[end] != ',' && num[end] != '}' {
		return 0, nil, false
	}
	index, err := strconv.Atoi(string(num[:end]))
	if err != nil {
		return 0, nil, false
	}
	return index, num[end:], true
}

// resultSlot is one result of the merged body: {"index":index followed by
// rest.
type resultSlot struct {
	index int
	rest  []byte
}

// errorSlot is the slot of a failed result: {"index":index,"error":msg},
// encoded as encoding/json encodes a service.BatchResult.
func errorSlot(index int, msg string) resultSlot {
	rest := []byte{'}'}
	if msg != "" {
		rest = append(wire.AppendString([]byte(`,"error":`), msg), '}')
	}
	return resultSlot{index: index, rest: rest}
}

// subOutcome is one sub-batch's round trip.
type subOutcome struct {
	backend    string
	indices    []int // original batch indices, in sub-batch order
	resp       subResponse
	status     int
	retryAfter string
	err        error
	buf        *[]byte // the pooled buffer resp's spans alias, or nil
}

// refusal returns the error text of a sub-batch the backend answered but
// did not solve: a non-2xx status other than a 429 that shed every
// instance. It is the backend's error message, or the status text when the
// body carried none, and empty for a sub-batch the backend solved.
func (out *subOutcome) refusal() string {
	if out.status/100 == 2 || out.status == http.StatusTooManyRequests && out.resp.Shed == len(out.indices) {
		return ""
	}
	if out.resp.Error != "" {
		return out.resp.Error
	}
	return fmt.Sprintf("status %d %s", out.status, http.StatusText(out.status))
}

// handleBatch splits a batch by ring owner, solves the sub-batches on their
// backends concurrently, and re-merges the results under the original
// indices. A sub-batch whose backend fails outright or refuses it degrades
// to per-instance errors; the batch is answered 429 only when EVERY
// sub-response was a full quota shed, and with a backend's 4xx only when
// every backend refused its sub-batch with it, mirroring the single-backend
// semantics.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.m.requests.Add(1)
	rt.m.routedBatch.Add(1)
	bp := wire.GetBuffer()
	pooled := true
	defer func() {
		if pooled {
			wire.PutBuffer(bp)
		}
	}()
	body, ok := rt.readBody(w, r, *bp)
	*bp = body
	if !ok {
		return
	}
	var req batchRequest
	if !req.decodeCanonical(body) && json.Unmarshal(body, &req) != nil || len(req.Instances) == 0 {
		rt.fail(w, http.StatusBadRequest, errors.New("parsing request: missing instances"))
		return
	}
	for i := range req.Instances {
		if req.Instances[i].null() {
			rt.fail(w, http.StatusBadRequest, fmt.Errorf("instance %d is null", i))
			return
		}
	}

	// Group the original indices into one sub-batch per routed backend,
	// in the order the batch first routes to them.
	var outs []subOutcome
	for i, ri := range req.Instances {
		target, _ := rt.pick(ri.key, "")
		if target == "" {
			rt.m.errors.Add(1)
			rt.fail(w, http.StatusServiceUnavailable, errors.New("no healthy backends"))
			return
		}
		gi := slices.IndexFunc(outs, func(out subOutcome) bool { return out.backend == target })
		if gi < 0 {
			gi = len(outs)
			outs = append(outs, subOutcome{backend: target})
		}
		outs[gi].indices = append(outs[gi].indices, i)
	}
	if len(outs) == 1 {
		// A transport error leaves the body with a round tripper that may
		// still read it, and route retries, so the body is not pooled.
		pooled = false
		rt.route(w, r, req.Instances[0].key, body)
		return
	}
	rt.m.batchSplits.Add(1)

	envelope := subBatchEnvelope(req.Solver, req.Timeout)
	var wg sync.WaitGroup
	for gi := range outs {
		wg.Add(1)
		go func(out *subOutcome) {
			defer wg.Done()
			rt.sendSubBatch(r, out, envelope, req.Instances)
		}(&outs[gi])
	}
	wg.Wait()

	for _, out := range outs {
		if out.err != nil {
			rt.m.errors.Add(1)
		}
	}
	mp := wire.GetBuffer()
	merged, status, retryAfter := mergeBatch(*mp, len(req.Instances), outs)
	*mp = merged
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(merged)))
	if status == http.StatusTooManyRequests {
		h.Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	w.Write(merged)
	wire.PutBuffer(mp)
	for _, out := range outs {
		if out.buf != nil {
			wire.PutBuffer(out.buf)
		}
	}
}

// sendSubBatch posts the sub-batch of the instances at out.indices to
// out.backend and decodes its response's envelope into out, reading it into
// out.buf for the caller to release once the merged body is written.
//
// The sub-batch body is built in a pooled buffer too. An http.RoundTripper
// may still read a request body after RoundTrip returns, so that buffer
// goes back only when the backend answered 2xx and the answer was read to
// its end: a backend answers a batch 2xx only after it has read the whole
// body, so by then the transport has copied every byte of it out. After a
// transport error, a failed read or any other status, the buffer is
// dropped.
func (rt *Router) sendSubBatch(r *http.Request, out *subOutcome, env batchEnvelope, insts []rawInstance) {
	bp := wire.GetBuffer()
	*bp = env.appendBody((*bp)[:0], insts, out.indices)
	resp, err := rt.send(r.Context(), http.MethodPost, out.backend, "/v1/batch-solve", r.Header, "", *bp)
	if err != nil {
		out.err = err
		return
	}
	out.buf = wire.GetBuffer()
	data, err := wire.ReadSized(*out.buf, resp.Body, resp.ContentLength)
	*out.buf = data
	resp.Body.Close()
	out.status = resp.StatusCode
	out.retryAfter = resp.Header.Get("Retry-After")
	if err == nil && out.status/100 == 2 {
		wire.PutBuffer(bp)
	}
	if err == nil && !out.resp.decodeCanonical(data) {
		err = json.Unmarshal(data, &out.resp)
	}
	if err != nil {
		out.err = fmt.Errorf("backend %s: %v", out.backend, err)
	}
}

// batchEnvelope holds a sub-batch body's encoded solver and timeout fields,
// shared by every sub-batch of one batch.
type batchEnvelope struct {
	solver, timeout []byte // `"solver":"…",` and `,"timeout":"…"`, or empty
}

// subBatchEnvelope encodes the fields service.BatchRequest sends besides the
// instances, with the same omitempty rules.
func subBatchEnvelope(solver, timeout string) batchEnvelope {
	var env batchEnvelope
	if solver != "" {
		env.solver = append(wire.AppendString([]byte(`"solver":`), solver), ',')
	}
	if timeout != "" {
		env.timeout = wire.AppendString([]byte(`,"timeout":`), timeout)
	}
	return env
}

// appendBody appends a sub-batch body to b: the envelope around the
// client's bytes of the instances at indices, growing b at most once.
func (env batchEnvelope) appendBody(b []byte, insts []rawInstance, indices []int) []byte {
	size := len(`{"instances":[]}`) + len(env.solver) + len(env.timeout) + len(indices)
	for _, idx := range indices {
		size += len(insts[idx].raw)
	}
	b = slices.Grow(b, size)
	b = append(b, '{')
	b = append(b, env.solver...)
	b = append(b, `"instances":[`...)
	for k, idx := range indices {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, insts[idx].raw...)
	}
	b = append(b, ']')
	b = append(b, env.timeout...)
	return append(b, '}')
}

// sameRefusal returns the status and the first error text when every
// sub-batch was refused with the same 4xx status, and 0 otherwise.
func sameRefusal(outs []subOutcome) (status int, msg string) {
	if len(outs) == 0 {
		return 0, ""
	}
	for _, out := range outs {
		if out.err != nil || out.status/100 != 4 || out.status != outs[0].status || out.refusal() == "" {
			return 0, ""
		}
	}
	return outs[0].status, outs[0].refusal()
}

// mergeBatch appends to dst the body of a service.BatchResponse that
// merges the sub-batch outcomes of a batch of n instances, byte for byte
// what encoding it with json.Encoder gives, and returns the status to
// answer with: 429, with the largest Retry-After seen, when every sub-response was
// a full quota shed; the backends' own 4xx, with the first one's error as a
// service.ErrorResponse body, when every sub-batch was refused with that
// same status, as the single-owner path passes it through; else 200.
//
// A sub-batch that failed in transport or was refused fails each of its
// instances with the error, and counts them as failed. An instance its
// backend returned no well-formed result for gets an error of its own; the
// counts stay the backend's, which already counted it.
func mergeBatch(dst []byte, n int, outs []subOutcome) (body []byte, status, retryAfter int) {
	if status, msg := sameRefusal(outs); status != 0 {
		return append(wire.AppendString(append(dst, `{"error":`...), msg), "}\n"...), status, 0
	}
	head := service.BatchResponse{Count: n}
	slots := make([]resultSlot, n)
	allShed := true
	for _, out := range outs {
		msg := out.refusal()
		if out.err != nil {
			msg = fmt.Sprint(out.err)
		}
		if msg != "" {
			allShed = false
			for _, idx := range out.indices {
				head.Failed++
				slots[idx] = errorSlot(idx, fmt.Sprintf("backend %s: %s", out.backend, msg))
			}
			continue
		}
		head.Solver = out.resp.Solver
		if out.status != http.StatusTooManyRequests || out.resp.Shed != len(out.indices) {
			allShed = false
		}
		if secs, err := strconv.Atoi(out.retryAfter); err == nil && secs > retryAfter {
			retryAfter = secs
		}
		head.Solved += out.resp.Solved
		head.Failed += out.resp.Failed
		head.Cancelled += out.resp.Cancelled
		head.Shed += out.resp.Shed
		for _, res := range out.resp.Results {
			sub, rest, ok := splitResult(res)
			if !ok || sub < 0 || sub >= len(out.indices) {
				continue // a malformed backend result cannot corrupt others
			}
			orig := out.indices[sub]
			slots[orig] = resultSlot{index: orig, rest: rest}
		}
	}
	// The sub-batches partition the batch, so this fills every slot left.
	for _, out := range outs {
		for _, idx := range out.indices {
			if slots[idx].rest == nil {
				slots[idx] = errorSlot(idx, fmt.Sprintf("backend %s: no result for this instance", out.backend))
			}
		}
	}

	// Encode the envelope with no results, then splice them in where its
	// "results":null stands. (It holds no float, so encoding cannot fail.)
	body, _ = head.AppendJSON(dst)
	const nullResults = `null}`
	body = body[:len(body)-len(nullResults)]
	size := len("[]}\n")
	for _, s := range slots {
		size += len(resultPrefix) + 20 + 1 + len(s.rest)
	}
	body = slices.Grow(body, size)
	body = append(body, '[')
	for i, s := range slots {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, resultPrefix...)
		body = strconv.AppendInt(body, int64(s.index), 10)
		body = append(body, s.rest...)
	}
	body = append(body, "]}\n"...)

	status = http.StatusOK
	if allShed {
		status = http.StatusTooManyRequests
		retryAfter = max(retryAfter, 1)
	}
	return body, status, retryAfter
}
