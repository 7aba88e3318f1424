package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"crsharing/internal/core"
	"crsharing/internal/service"
)

// The batch path moves each instance through the router once: the router
// decodes the client's body only to fingerprint the instances, forwards
// each instance's bytes to its owner unchanged, decodes the backends'
// responses only at the envelope, and splices their results into the merged
// body under the original indices. Nothing is re-encoded on the way.

// batchRequest is the router's view of a POST /v1/batch-solve body
// (service.BatchRequest): the envelope it forwards and every instance as
// the client's bytes beside their decoded form.
type batchRequest struct {
	Solver    string        `json:"solver,omitempty"`
	Instances []rawInstance `json:"instances"`
	Timeout   string        `json:"timeout,omitempty"`
}

// rawInstance is one instance of a batch: the client's bytes, forwarded as
// they are, and the decoded instance, used only for its fingerprint (its
// UnmarshalJSON validates it). json.Unmarshal hands UnmarshalJSON a
// sub-slice of its input, so raw aliases the request body, which the
// handler holds until the sub-batches are sent.
type rawInstance struct {
	raw  []byte
	inst *core.Instance // nil for a JSON null
}

func (ri *rawInstance) UnmarshalJSON(data []byte) error {
	ri.raw = data
	if string(data) == "null" {
		return nil
	}
	ri.inst = new(core.Instance)
	return ri.inst.UnmarshalJSON(data)
}

// subResponse is a backend's batch response (service.BatchResponse) decoded
// at the envelope only: the counts the merge sums, and every result as the
// backend's bytes.
type subResponse struct {
	Solver    string    `json:"solver"`
	Solved    int       `json:"solved"`
	Failed    int       `json:"failed"`
	Cancelled int       `json:"cancelled"`
	Shed      int       `json:"shed"`
	Results   []rawSpan `json:"results"`
}

// rawSpan keeps a JSON value's bytes: a sub-slice of the response body the
// sub-batch outcome holds.
type rawSpan []byte

func (s *rawSpan) UnmarshalJSON(data []byte) error {
	*s = data
	return nil
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

// missingResult is the slot of an instance no backend answered for: the
// zero service.BatchResult, {"index":0}, as the typed merge always wrote it.
var missingResult = resultSlot{rest: []byte("}")}

// subOutcome is one sub-batch's round trip.
type subOutcome struct {
	backend    string
	indices    []int // original batch indices, in sub-batch order
	resp       subResponse
	status     int
	retryAfter string
	err        error
}

// handleBatch splits a batch by ring owner, solves the sub-batches on their
// backends concurrently, and re-merges the results under the original
// indices. A sub-batch whose backend fails outright degrades to per-instance
// errors; the batch is answered 429 only when EVERY sub-response was a full
// quota shed, mirroring the single-backend semantics.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.m.requests.Add(1)
	rt.m.routedBatch.Add(1)
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil || len(req.Instances) == 0 {
		rt.fail(w, http.StatusBadRequest, errors.New("parsing request: missing instances"))
		return
	}
	for i, ri := range req.Instances {
		if ri.inst == nil {
			rt.fail(w, http.StatusBadRequest, fmt.Errorf("instance %d is null", i))
			return
		}
	}

	// Group the original indices by routed backend.
	groups := make(map[string][]int)
	var order []string
	for i, ri := range req.Instances {
		target, _ := rt.pick(ri.inst.Fingerprint().Uint64(), "")
		if target == "" {
			rt.m.errors.Add(1)
			rt.fail(w, http.StatusServiceUnavailable, errors.New("no healthy backends"))
			return
		}
		if _, seen := groups[target]; !seen {
			order = append(order, target)
		}
		groups[target] = append(groups[target], i)
	}
	if len(groups) == 1 {
		rt.route(w, r, req.Instances[0].inst.Fingerprint().Uint64(), body)
		return
	}
	rt.m.batchSplits.Add(1)

	envelope := subBatchEnvelope(req.Solver, req.Timeout)
	outs := make([]subOutcome, len(order))
	var wg sync.WaitGroup
	for gi, backend := range order {
		wg.Add(1)
		go func(gi int, backend string) {
			defer wg.Done()
			indices := groups[backend]
			outs[gi] = rt.sendSubBatch(r, backend, indices, envelope.body(req.Instances, indices))
		}(gi, backend)
	}
	wg.Wait()

	for _, out := range outs {
		if out.err != nil {
			rt.m.errors.Add(1)
		}
	}
	merged, status, retryAfter := mergeBatch(len(req.Instances), outs)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(merged)))
	if status == http.StatusTooManyRequests {
		h.Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.WriteHeader(status)
	w.Write(merged)
}

// sendSubBatch posts one sub-batch and decodes its response's envelope.
func (rt *Router) sendSubBatch(r *http.Request, backend string, indices []int, body []byte) subOutcome {
	out := subOutcome{backend: backend, indices: indices}
	resp, err := rt.send(r.Context(), http.MethodPost, backend, "/v1/batch-solve", r.Header, "", body)
	if err != nil {
		out.err = err
		return out
	}
	data, err := readSized(resp.Body, resp.ContentLength)
	resp.Body.Close()
	out.status = resp.StatusCode
	out.retryAfter = resp.Header.Get("Retry-After")
	if err == nil {
		err = json.Unmarshal(data, &out.resp)
	}
	if err != nil {
		out.err = fmt.Errorf("backend %s: %v", backend, err)
	}
	return out
}

// batchEnvelope holds a sub-batch body's encoded solver and timeout fields,
// shared by every sub-batch of one batch.
type batchEnvelope struct {
	solver, timeout []byte // `"solver":"…",` and `,"timeout":"…"`, or empty
}

// subBatchEnvelope encodes the fields service.BatchRequest sends besides the
// instances, with the same omitempty rules. (Marshalling a string cannot
// fail.)
func subBatchEnvelope(solver, timeout string) batchEnvelope {
	var env batchEnvelope
	if solver != "" {
		enc, _ := json.Marshal(solver)
		env.solver = append(append([]byte(`"solver":`), enc...), ',')
	}
	if timeout != "" {
		enc, _ := json.Marshal(timeout)
		env.timeout = append([]byte(`,"timeout":`), enc...)
	}
	return env
}

// body builds a sub-batch body: the envelope around the client's bytes of
// the instances at indices, in one allocation.
func (env batchEnvelope) body(insts []rawInstance, indices []int) []byte {
	size := len(`{"instances":[]}`) + len(env.solver) + len(env.timeout) + len(indices)
	for _, idx := range indices {
		size += len(insts[idx].raw)
	}
	b := make([]byte, 0, size)
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

// mergeBatch merges the sub-batch outcomes into the body of a
// service.BatchResponse for a batch of n instances, byte for byte what
// encoding it with json.Encoder gives, and returns the status to answer
// with: 429, with the largest Retry-After seen, when every sub-response was
// a full quota shed, else 200. (The marshalled values hold only strings and
// integers, so marshalling cannot fail.)
func mergeBatch(n int, outs []subOutcome) (body []byte, status, retryAfter int) {
	head := service.BatchResponse{Count: n}
	slots := make([]resultSlot, n)
	for i := range slots {
		slots[i] = missingResult
	}
	allShed := true
	for _, out := range outs {
		if out.err != nil {
			allShed = false
			for _, idx := range out.indices {
				head.Failed++
				failed, _ := json.Marshal(service.BatchResult{
					Index: idx,
					Error: fmt.Sprintf("backend %s: %v", out.backend, out.err),
				})
				_, rest, _ := splitResult(failed)
				slots[idx] = resultSlot{index: idx, rest: rest}
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

	// Encode the envelope with no results, then splice them in where its
	// "results":null stands.
	enc, _ := json.Marshal(head)
	const nullResults = `null}`
	enc = enc[:len(enc)-len(nullResults)]
	size := len(enc) + len("[]}\n")
	for _, s := range slots {
		size += len(resultPrefix) + 20 + 1 + len(s.rest)
	}
	body = make([]byte, 0, size)
	body = append(body, enc...)
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
