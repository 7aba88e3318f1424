package core_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crsharing/internal/algo/anytime"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/harness"
	"crsharing/internal/numeric"
)

// checkExecParity executes sched on inst with Execute and with the
// reference, and fails unless both agree on the error, every Result
// accessor (floats bit for bit), every property and both propositions'
// verdicts and messages. It then executes sched again with ExecuteInto on
// reused, a Result the caller carries across cases, and holds that to the
// same reference, so a reused Result matches a fresh Execute exactly.
func checkExecParity(t *testing.T, reused *core.Result, inst *core.Instance, sched *core.Schedule) {
	t.Helper()
	if err := execParity(inst, sched, reused); err != nil {
		t.Fatalf("%v\n%v\n%v", err, inst, sched)
	}
}

func execParity(inst *core.Instance, sched *core.Schedule, reused *core.Result) error {
	want, wantErr := refExecute(inst, sched)
	got, gotErr := core.Execute(inst, sched)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	into, intoErr := core.ExecuteInto(reused, inst, sched)
	if fmt.Sprint(intoErr) != fmt.Sprint(wantErr) {
		return fmt.Errorf("reused: error %v, reference %v", intoErr, wantErr)
	}
	if wantErr != nil {
		return nil
	}
	if into != reused {
		return fmt.Errorf("ExecuteInto returned a new Result instead of reusing its destination")
	}
	if err := resultParity(inst, sched, got, want); err != nil {
		return err
	}
	if err := resultParity(inst, sched, into, want); err != nil {
		return fmt.Errorf("reused: %w", err)
	}
	return nil
}

// resultParity compares every accessor, property verdict and proposition
// message of got with the reference's.
func resultParity(inst *core.Instance, sched *core.Schedule, got *core.Result, want *refResult) error {
	if got.Instance() != inst || got.Schedule() != sched {
		return fmt.Errorf("result does not keep its instance and schedule")
	}
	if got.Finished() != want.Finished() || got.Makespan() != want.Makespan() ||
		math.Float64bits(got.Wasted()) != math.Float64bits(want.Wasted()) ||
		got.Steps() != want.Steps() || got.NumProcessors() != want.NumProcessors() {
		return fmt.Errorf("finished/makespan/wasted/steps/procs %v %d %v %d %d, reference %v %d %v %d %d",
			got.Finished(), got.Makespan(), got.Wasted(), got.Steps(), got.NumProcessors(),
			want.Finished(), want.Makespan(), want.Wasted(), want.Steps(), want.NumProcessors())
	}
	m, steps := inst.NumProcessors(), sched.Steps()
	for i := 0; i < m; i++ {
		for j := 0; j < inst.NumJobs(i); j++ {
			if got.StartStep(i, j) != want.StartStep(i, j) || got.CompletionStep(i, j) != want.CompletionStep(i, j) {
				return fmt.Errorf("job (%d,%d): start/completion %d/%d, reference %d/%d", i, j,
					got.StartStep(i, j), got.CompletionStep(i, j), want.StartStep(i, j), want.CompletionStep(i, j))
			}
		}
	}
	for t := 0; t <= steps; t++ {
		for i := 0; i < m; i++ {
			gj, gok := got.ActiveJob(t, i)
			wj, wok := want.ActiveJob(t, i)
			if got.JobsDone(t, i) != want.JobsDone(t, i) || got.RemainingJobs(t, i) != want.RemainingJobs(t, i) ||
				got.Active(t, i) != want.Active(t, i) || gj != wj || gok != wok ||
				math.Float64bits(got.RemainingWork(t, i)) != math.Float64bits(want.RemainingWork(t, i)) {
				return fmt.Errorf("t=%d proc %d: done/left/active/job/work %d %d %v %d %v %v, reference %d %d %v %d %v %v", t, i,
					got.JobsDone(t, i), got.RemainingJobs(t, i), got.Active(t, i), gj, gok, got.RemainingWork(t, i),
					want.JobsDone(t, i), want.RemainingJobs(t, i), want.Active(t, i), wj, wok, want.RemainingWork(t, i))
			}
		}
		if g, w := got.ActiveJobs(t), want.ActiveJobs(t); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("t=%d: active jobs %v, reference %v", t, g, w)
		}
	}
	for t := -1; t <= steps+1; t++ {
		for i := 0; i < m; i++ {
			if got.Progressed(t, i) != want.Progressed(t, i) || got.FinishedJobDuring(t, i) != want.FinishedJobDuring(t, i) {
				return fmt.Errorf("t=%d proc %d: progressed/finished %v %v, reference %v %v", t, i,
					got.Progressed(t, i), got.FinishedJobDuring(t, i), want.Progressed(t, i), want.FinishedJobDuring(t, i))
			}
		}
	}
	if g, w := got.CompletionOrder(), want.CompletionOrder(); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("completion order %v, reference %v", g, w)
	}

	props, wantProps := core.CheckProperties(got), refCheckProperties(want)
	if props != wantProps || props.String() != wantProps.String() {
		return fmt.Errorf("properties %+v, reference %+v", props, wantProps)
	}
	verdicts := []struct {
		name      string
		got, want bool
	}{
		{"non-wasting", core.IsNonWasting(got), refIsNonWasting(want)},
		{"progressive", core.IsProgressive(got), refIsProgressive(want)},
		{"nested", core.IsNested(got), refIsNested(want)},
		{"balanced", core.IsBalanced(got), refIsBalanced(want)},
	}
	for _, v := range verdicts {
		if v.got != v.want {
			return fmt.Errorf("%s: %v, reference %v", v.name, v.got, v.want)
		}
	}
	// The propositions only hold for balanced schedules, but their checks
	// run on any: unbalanced ones exercise the violation messages.
	if g, w := fmt.Sprint(core.CheckProposition1(got)), fmt.Sprint(refCheckProposition1(want)); g != w {
		return fmt.Errorf("Proposition 1: %s, reference %s", g, w)
	}
	if g, w := fmt.Sprint(core.CheckProposition2(got)), fmt.Sprint(refCheckProposition2(want)); g != w {
		return fmt.Errorf("Proposition 2: %s, reference %s", g, w)
	}
	return nil
}

// corpusSchedules returns the schedules the parity tests execute for one
// instance: each scheduler's answer, that answer cut to half its steps
// (unfinished), and widened by two processors the instance does not have.
func corpusSchedules(t *testing.T, inst *core.Instance) []*core.Schedule {
	t.Helper()
	type scheduler interface {
		Schedule(context.Context, *core.Instance) (*core.Schedule, error)
	}
	var out []*core.Schedule
	for _, s := range []scheduler{
		greedybalance.New(),
		greedybalance.NewWithTie(greedybalance.SmallerRemaining),
		greedybalance.NewUnbalanced(greedybalance.ProcessorIndex),
		roundrobin.New(),
		anytime.New(),
	} {
		sched, err := s.Schedule(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		half := &core.Schedule{Alloc: sched.Alloc[:sched.Steps()/2]}
		wide := core.NewSchedule(sched.Steps(), sched.NumProcessors()+2)
		for step, row := range sched.Alloc {
			copy(wide.Alloc[step], row)
			wide.Alloc[step][len(row)+1] = max(0, 1-numeric.Sum(row))
		}
		out = append(out, sched, half, wide)
	}
	return out
}

// TestExecuteParityCorpus holds Execute, ExecuteInto on one reused Result,
// and the Section-4 checks to the reference on the load harness's corpus,
// seeds 1-3.
func TestExecuteParityCorpus(t *testing.T) {
	cases := 0
	reused := new(core.Result)
	for seed := int64(1); seed <= 3; seed++ {
		for _, item := range harness.BuildCorpus(seed).Items() {
			for _, sched := range corpusSchedules(t, item.Inst) {
				checkExecParity(t, reused, item.Inst, sched)
				cases++
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d corpus cases", cases)
	}
}

// TestExecuteParityRandom holds Execute, ExecuteInto on one reused Result,
// and the Section-4 checks to the reference on random instances and schedules built to hit the progress
// law's edges.
func TestExecuteParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	reused := new(core.Result)
	for n := 0; n < 5000; n++ {
		inst, sched := edgeCase(rng)
		checkExecParity(t, reused, inst, sched)
	}
}

// FuzzExecute holds Execute, ExecuteInto on one reused Result, and the
// Section-4 checks to the reference on instances and schedules drawn from the fuzzer's bytes.
func FuzzExecute(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 16; n++ {
		seed := make([]byte, 64+rng.Intn(256))
		rng.Read(seed)
		f.Add(seed)
	}
	// One Result serves every input, so each case reuses slabs sized by
	// earlier cases with other processor counts, job counts and steps.
	reused := new(core.Result)
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, sched := edgeCase(&byteSource{data: data})
		checkExecParity(t, reused, inst, sched)
	})
}

// source is the randomness edgeCase draws from: a math/rand stream, or the
// fuzzer's bytes.
type source interface {
	Intn(n int) int
	Float64() float64
}

// byteSource reads choices from a byte string, and zeros once it runs out.
type byteSource struct{ data []byte }

func (s *byteSource) take(n int) []byte {
	var buf [8]byte
	k := copy(buf[:n], s.data)
	s.data = s.data[k:]
	return buf[:n]
}

func (s *byteSource) Intn(n int) int { return int(s.take(1)[0]) % n }

func (s *byteSource) Float64() float64 {
	return float64(binary.LittleEndian.Uint16(s.take(2))) / (1 << 16)
}

// pick returns one of the candidates.
func pick[T any](src source, candidates ...T) T { return candidates[src.Intn(len(candidates))] }

// edgeCase draws an instance and a schedule for it that hit the progress
// law's edges: zero-requirement jobs and requirements within numeric.Eps of
// zero and one and at numeric.Eps itself, processors without jobs, fractional and tiny sizes, shares
// of -0 and within numeric.Eps of the active job's requirement and
// remaining work, negative shares Execute tolerates, schedules too short to
// finish, wider than the instance, narrower than it, and overusing the
// resource.
func edgeCase(src source) (*core.Instance, *core.Schedule) {
	const eps = numeric.Eps
	m := src.Intn(6)
	procs := make([][]core.Job, m)
	for i := range procs {
		for n := src.Intn(5); n > 0; n-- {
			procs[i] = append(procs[i], core.Job{
				Req:  pick[float64](src, 0, eps/2, eps, 1, 1-eps/2, 0.5, 1.0/3, src.Float64(), src.Float64()),
				Size: pick[float64](src, 1, 1, 1, 0.5, 2, 1.5, eps/4, 1+eps/2),
			})
		}
	}
	inst := core.NewSizedInstance(procs...)

	width := m + pick(src, 0, 0, 0, 1, 2)
	if m > 1 && src.Intn(32) == 0 {
		width = m - 1 // narrower than the instance: an error
	}
	steps := src.Intn(12)
	b := core.NewBuilder(inst)
	sched := &core.Schedule{}
	for step := 0; step < steps; step++ {
		row := make([]float64, width)
		avail := 1.0
		overuse := src.Intn(32) == 0
		for i := range row {
			var share float64
			if i < m {
				demand, work := b.DemandThisStep(i), b.RemainingWork(i)
				req := 0.0
				if j := b.ActiveJob(i); j >= 0 {
					req = inst.Job(i, j).Req
				}
				share = pick[float64](src, 0, math.Copysign(0, -1), -eps/2, eps, demand, demand+eps/2, demand-eps/2,
					req, req+eps/2, req-eps/2, work+eps/2, work-eps/2, src.Float64()*avail, avail)
			} else {
				share = pick[float64](src, 0, src.Float64()*avail)
			}
			if !overuse {
				share = min(share, avail)
			}
			row[i] = share
			avail -= max(share, 0)
		}
		sched.Alloc = append(sched.Alloc, row)
		b.AppendStep(row)
	}
	return inst, sched
}
