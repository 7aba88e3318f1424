package service

import (
	"strconv"

	"crsharing/internal/core"
	"crsharing/internal/wire"
)

// The serving tier's envelope codec. The request bodies decode in one pass
// when they are in canonical form:
//
//   - an object whose keys are the request's own field names, exactly cased,
//     in any order, none twice and no others;
//   - no null value;
//   - strings with no escape sequence;
//   - instances and warm-start schedules in core's canonical shape, every
//     instance passing Validate;
//   - nothing but whitespace after the object.
//
// Any other body goes to encoding/json, so every decoded value and every
// error is the one it gives. The responses a solve and a batch answer with
// are appended directly, byte for byte what json.Encoder writes.

// The members of the request bodies; each body accepts a subset.
const (
	memberSolver = 1 << iota
	memberInstance
	memberInstances
	memberTimeout
	memberIncludeSchedule
	memberWarmStart
)

// envelope is the union of the request bodies' members.
type envelope struct {
	solver, timeout string
	instance        *core.Instance
	instances       []*core.Instance
	includeSchedule bool
	warmStart       *core.Schedule
}

// parseEnvelope parses a canonical request body whose members are among
// allowed. ok is false for any other input, valid or not.
func parseEnvelope(data []byte, allowed int) (env envelope, ok bool) {
	sc := wire.NewScanner(data)
	seen := 0
	ok = sc.Object(func(key []byte) bool {
		member := memberOf(key)
		if allowed&member == 0 || seen&member != 0 {
			return false
		}
		seen |= member
		var ok bool
		switch member {
		case memberSolver:
			env.solver, ok = sc.PlainString()
		case memberInstance:
			env.instance, ok = core.DecodeInstance(&sc)
		case memberInstances:
			env.instances, ok = decodeInstances(&sc)
		case memberTimeout:
			env.timeout, ok = sc.PlainString()
		case memberIncludeSchedule:
			env.includeSchedule, ok = sc.Bool()
		case memberWarmStart:
			env.warmStart, ok = core.DecodeSchedule(&sc)
		}
		return ok
	})
	return env, ok && sc.End()
}

// memberOf maps a request key to its member, or to 0 for any other key.
func memberOf(key []byte) int {
	switch string(key) {
	case "solver":
		return memberSolver
	case "instance":
		return memberInstance
	case "instances":
		return memberInstances
	case "timeout":
		return memberTimeout
	case "include_schedule":
		return memberIncludeSchedule
	case "warm_start":
		return memberWarmStart
	}
	return 0
}

// decodeInstances parses an array of canonical instances; an empty array
// decodes to an empty, non-nil slice, as encoding/json decodes it.
func decodeInstances(sc *wire.Scanner) ([]*core.Instance, bool) {
	if !sc.Token("[") {
		return nil, false
	}
	insts := []*core.Instance{}
	if sc.Token("]") {
		return insts, true
	}
	for {
		inst, ok := core.DecodeInstance(sc)
		if !ok {
			return nil, false
		}
		insts = append(insts, inst)
		if sc.Token("]") {
			return insts, true
		}
		if !sc.Token(",") {
			return nil, false
		}
	}
}

// DecodeCanonical decodes a canonical body into r and reports whether it
// did; r is left as it was when it did not, and the caller then decodes the
// body with encoding/json.
func (r *SolveRequest) DecodeCanonical(data []byte) bool {
	env, ok := parseEnvelope(data, memberSolver|memberInstance|memberTimeout|memberIncludeSchedule|memberWarmStart)
	if ok {
		*r = SolveRequest{
			Solver:          env.solver,
			Instance:        env.instance,
			Timeout:         env.timeout,
			IncludeSchedule: env.includeSchedule,
			WarmStart:       env.warmStart,
		}
	}
	return ok
}

// DecodeCanonical is SolveRequest.DecodeCanonical for batch bodies.
func (r *BatchRequest) DecodeCanonical(data []byte) bool {
	env, ok := parseEnvelope(data, memberSolver|memberInstances|memberTimeout)
	if ok {
		*r = BatchRequest{Solver: env.solver, Instances: env.instances, Timeout: env.timeout}
	}
	return ok
}

// DecodeCanonical is SolveRequest.DecodeCanonical for job submissions.
func (r *JobRequest) DecodeCanonical(data []byte) bool {
	env, ok := parseEnvelope(data, memberSolver|memberInstance|memberTimeout)
	if ok {
		*r = JobRequest{Solver: env.solver, Instance: env.instance, Timeout: env.timeout}
	}
	return ok
}

// AppendJSON appends the response's JSON encoding to b, byte for byte what
// encoding/json produces for it. ok is false when a float is NaN or
// infinite, which encoding/json refuses; the bytes appended are then
// incomplete and the caller should let encoding/json produce its error.
func (r *SolveResponse) AppendJSON(b []byte) (_ []byte, ok bool) {
	if !wire.Finite(r.Ratio) || !wire.Finite(r.Wasted) || !wire.Finite(r.ElapsedMS) {
		return b, false
	}
	b = append(b, `{"solver":`...)
	b = wire.AppendString(b, r.Solver)
	b = append(b, `,"algorithm":`...)
	b = wire.AppendString(b, r.Algorithm)
	b = append(b, `,"source":`...)
	b = wire.AppendString(b, r.Source)
	b = append(b, `,"fingerprint":`...)
	b = wire.AppendString(b, r.Fingerprint)
	b = append(b, `,"makespan":`...)
	b = strconv.AppendInt(b, int64(r.Makespan), 10)
	b = append(b, `,"lower_bound":`...)
	b = strconv.AppendInt(b, int64(r.LowerBound), 10)
	b = append(b, `,"ratio":`...)
	b = wire.AppendFloat(b, r.Ratio)
	b = append(b, `,"wasted":`...)
	b = wire.AppendFloat(b, r.Wasted)
	b = append(b, `,"properties":`...)
	b = wire.AppendString(b, r.Properties)
	b = append(b, `,"elapsed_ms":`...)
	b = wire.AppendFloat(b, r.ElapsedMS)
	if r.Telemetry != nil {
		b = append(b, `,"telemetry":`...)
		if b, ok = r.Telemetry.AppendJSON(b); !ok {
			return b, false
		}
	}
	if r.Schedule != nil {
		b = append(b, `,"schedule":`...)
		if b, ok = r.Schedule.AppendJSON(b); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// AppendJSON is SolveResponse.AppendJSON for batch responses.
func (r *BatchResponse) AppendJSON(b []byte) (_ []byte, ok bool) {
	b = append(b, `{"solver":`...)
	b = wire.AppendString(b, r.Solver)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	b = append(b, `,"solved":`...)
	b = strconv.AppendInt(b, int64(r.Solved), 10)
	b = append(b, `,"failed":`...)
	b = strconv.AppendInt(b, int64(r.Failed), 10)
	b = append(b, `,"cancelled":`...)
	b = strconv.AppendInt(b, int64(r.Cancelled), 10)
	if r.Shed != 0 {
		b = append(b, `,"shed":`...)
		b = strconv.AppendInt(b, int64(r.Shed), 10)
	}
	b = append(b, `,"results":`...)
	if r.Results == nil {
		return append(b, "null}"...), true
	}
	b = append(b, '[')
	for i := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		if b, ok = r.Results[i].appendJSON(b); !ok {
			return b, false
		}
	}
	return append(b, "]}"...), true
}

// appendJSON appends the result as encoding/json encodes it, omitting the
// zero-valued fields tagged omitempty.
func (r *BatchResult) appendJSON(b []byte) (_ []byte, ok bool) {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	if r.Makespan != 0 {
		b = append(b, `,"makespan":`...)
		b = strconv.AppendInt(b, int64(r.Makespan), 10)
	}
	if r.Wasted != 0 {
		if !wire.Finite(r.Wasted) {
			return b, false
		}
		b = append(b, `,"wasted":`...)
		b = wire.AppendFloat(b, r.Wasted)
	}
	if r.Algorithm != "" {
		b = append(b, `,"algorithm":`...)
		b = wire.AppendString(b, r.Algorithm)
	}
	if r.Source != "" {
		b = append(b, `,"source":`...)
		b = wire.AppendString(b, r.Source)
	}
	if r.ElapsedMS != 0 {
		if !wire.Finite(r.ElapsedMS) {
			return b, false
		}
		b = append(b, `,"elapsed_ms":`...)
		b = wire.AppendFloat(b, r.ElapsedMS)
	}
	if r.Telemetry != nil {
		b = append(b, `,"telemetry":`...)
		if b, ok = r.Telemetry.AppendJSON(b); !ok {
			return b, false
		}
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = wire.AppendString(b, r.Error)
	}
	if r.Cancelled {
		b = append(b, `,"cancelled":true`...)
	}
	if r.Shed {
		b = append(b, `,"shed":true`...)
	}
	return append(b, '}'), true
}
