package router

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"crsharing/internal/engine"
	"crsharing/internal/service"
)

const seedInstance = `{"procs":[[{"req":0.3,"size":1},{"req":0.7,"size":2}],[{"req":0.5,"size":1}]]}`

var batchRequestSeeds = []string{
	`{"instances":[` + seedInstance + `,` + seedInstance + `],"timeout":"2s"}`,
	`{"solver":"stub","instances":[` + seedInstance + `],"timeout":"2s"}`,
	` { "instances" : [ ` + seedInstance + ` , ` + seedInstance + ` ] } `,
	`{"Instances":[` + seedInstance + `]}`,
	`{"instances":[` + seedInstance + `],"instances":[]}`,
	`{"instances":[` + seedInstance + `],"x":1}`,
	`{"instances":[null]}`,
	`{"instances":null}`,
	`{"instances":[]}`,
	`{"instances":[` + seedInstance + `],"timeout":"2s"}`,
	`{"instances":[{"procs":[[{"req":1.5,"size":1}]]}]}`,
	`{"instances":[{"procs":[[{"req":0.5,"size":1e400}]]}]}`,
	`{"instances":[` + seedInstance + `]} x`,
	`{"instances":[` + seedInstance + `]}}`,
	``,
}

// FuzzRouterBatchRequest holds the router's canonical batch decoder to
// json.Unmarshal: it either declines or decodes the same envelope, the same
// instance bytes and the same routing keys, which json.Unmarshal takes from
// each instance's own decode.
func FuzzRouterBatchRequest(f *testing.F) {
	for _, seed := range batchRequestSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got batchRequest
		if !got.decodeCanonical(body) {
			return
		}
		var want batchRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("canonical decode accepted %q, json.Unmarshal: %v", body, err)
		}
		if got.Solver != want.Solver || got.Timeout != want.Timeout ||
			(got.Instances == nil) != (want.Instances == nil) || len(got.Instances) != len(want.Instances) {
			t.Fatalf("canonical decode of %q = %+v, json.Unmarshal %+v", body, got, want)
		}
		for i := range got.Instances {
			if !bytes.Equal(got.Instances[i].raw, want.Instances[i].raw) || got.Instances[i].key != want.Instances[i].key {
				t.Fatalf("instance %d of %q: %q, json.Unmarshal %q", i, body, got.Instances[i].raw, want.Instances[i].raw)
			}
		}
	})
}

// subResponseSeeds are backend bodies as service encodes them, and variants
// the canonical decoder must decline or decode as json.Unmarshal does.
func subResponseSeeds() []string {
	resp := service.BatchResponse{Solver: "portfolio", Count: 3, Solved: 1, Failed: 1, Shed: 1, Results: []service.BatchResult{
		{Index: 0, Makespan: 4, Wasted: 0.25, Algorithm: "greedy-balance (via portfolio)", Source: "cache", ElapsedMS: 0.5,
			Telemetry: &engine.Telemetry{Solver: "portfolio", Source: "cache", Ratio: 1, Properties: "<non-wasting>"}},
		{Index: 1, Error: `solver: unknown solver "x" <&>`},
		{Index: 2, Error: "shed", Shed: true},
	}}
	enc, err := json.Marshal(resp)
	if err != nil {
		panic(err)
	}
	body := string(enc)
	return []string{
		body,
		body + "\n",
		`{"solver":"stub","count":0,"solved":0,"failed":0,"cancelled":0,"results":[]}`,
		`{"error":"batch of 9 exceeds the maximum of 8"}`,
		`{"error":"solver: unknown solver \"x\""}`,
		strings.Replace(body, `"solved":1`, `"solved":1.0`, 1),
		strings.Replace(body, `"solved":1`, `"Solved":1`, 1),
		strings.Replace(body, `"solved":1`, `"solved":1,"solved":2`, 1),
		strings.Replace(body, `"solved":1`, `"solved":1,"extra":[1,{"a":null}]`, 1),
		strings.Replace(body, `"results":[`, `"results":[null,"x",[],`, 1),
		strings.Replace(body, `"results":[`, `"results":null,"r":[`, 1),
		strings.Replace(body, `"count":3`, `"count":99999999999999999999`, 1),
		body + "x",
		`[]`,
		``,
	}
}

// FuzzRouterSubResponse holds the router's canonical sub-response decoder
// to json.Unmarshal: it either declines or decodes the same counts, error
// and result bytes.
func FuzzRouterSubResponse(f *testing.F) {
	for _, seed := range subResponseSeeds() {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got subResponse
		if !got.decodeCanonical(data) {
			return
		}
		var want subResponse
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("canonical decode accepted %q, json.Unmarshal: %v", data, err)
		}
		if got.Error != want.Error || got.Solver != want.Solver || got.Solved != want.Solved ||
			got.Failed != want.Failed || got.Cancelled != want.Cancelled || got.Shed != want.Shed ||
			(got.Results == nil) != (want.Results == nil) || len(got.Results) != len(want.Results) {
			t.Fatalf("canonical decode of %q = %+v, json.Unmarshal %+v", data, got, want)
		}
		for i := range got.Results {
			if !bytes.Equal(got.Results[i], want.Results[i]) {
				t.Fatalf("result %d of %q: %q, json.Unmarshal %q", i, data, got.Results[i], want.Results[i])
			}
		}
	})
}

// TestCanonicalEnvelopesTakeTheFastPath pins that the bodies clients and
// backends send are canonical, so the fuzzing above compares decoded values.
func TestCanonicalEnvelopesTakeTheFastPath(t *testing.T) {
	if !new(batchRequest).decodeCanonical([]byte(batchRequestSeeds[0])) {
		t.Error("a canonical batch body is not decoded in one pass")
	}
	if !new(subResponse).decodeCanonical([]byte(subResponseSeeds()[1])) {
		t.Error("a backend batch response is not decoded in one pass")
	}
}

// TestEnvelopeEncodersMatchEncodingJSON: the sub-batch envelope, the error
// slot and the refusal body are what encoding/json writes, escapes included.
func TestEnvelopeEncodersMatchEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "stub", `q"uote\`, "<&>", "\n\x00", "\xff", "\u2028"} {
		raw, _ := json.Marshal(s)
		env := subBatchEnvelope(s, s)
		if s != "" && (string(env.solver) != `"solver":`+string(raw)+`,` || string(env.timeout) != `,"timeout":`+string(raw)) {
			t.Errorf("envelope for %q: %s / %s", s, env.solver, env.timeout)
		}
		want, _ := json.Marshal(service.BatchResult{Index: 7, Error: s})
		slot := errorSlot(7, s)
		if got := resultPrefix + "7" + string(slot.rest); got != string(want) {
			t.Errorf("error slot for %q: %s, want %s", s, got, want)
		}
		out := subOutcome{indices: []int{0}, status: 400, resp: subResponse{Error: s + "x"}}
		body, status, _ := mergeBatch(nil, 1, []subOutcome{out})
		wantBody, _ := json.Marshal(service.ErrorResponse{Error: s + "x"})
		if status != 400 || string(body) != string(wantBody)+"\n" {
			t.Errorf("refusal for %q: %d %s, want 400 %s", s, status, body, wantBody)
		}
	}
}
