package solver

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/core"
)

// remapInstance draws a small instance whose processors repeat one another
// (so canonical ties occur), with sizes other than 1 on some draws and
// zero requirements on others.
func remapInstance(rng *rand.Rand, shape uint8) *core.Instance {
	m := 1 + int(shape%5)
	sized := shape&0x20 != 0
	procs := make([][]core.Job, m)
	for i := range procs {
		if i > 0 && rng.Intn(3) == 0 {
			procs[i] = append([]core.Job(nil), procs[rng.Intn(i)]...)
			continue
		}
		procs[i] = make([]core.Job, 1+rng.Intn(3))
		for j := range procs[i] {
			job := core.UnitJob(float64(rng.Intn(9)) / 8)
			if sized {
				job.Size = float64(1+rng.Intn(4)) / 2
			}
			procs[i][j] = job
		}
	}
	return &core.Instance{Procs: procs}
}

// permuted returns inst with its processors in a random order; zero
// requirements may turn into negative zeros, which the fingerprint does not
// tell apart.
func permuted(rng *rand.Rand, inst *core.Instance) *core.Instance {
	out := &core.Instance{Procs: make([][]core.Job, len(inst.Procs))}
	for i, p := range rng.Perm(len(inst.Procs)) {
		out.Procs[i] = append([]core.Job(nil), inst.Procs[p]...)
		for j := range out.Procs[i] {
			if out.Procs[i][j].Req == 0 && rng.Intn(2) == 0 {
				out.Procs[i][j].Req = math.Copysign(0, -1)
			}
		}
	}
	return out
}

// scalars is ev without its schedule and race records.
func scalars(ev *Evaluation) Evaluation {
	out := *ev
	out.Schedule, out.Stats.Candidates = nil, nil
	return out
}

// sameSchedule reports whether two schedules agree bit for bit.
func sameSchedule(a, b *core.Schedule) bool {
	if a.Steps() != b.Steps() {
		return false
	}
	for t := range a.Alloc {
		if len(a.Alloc[t]) != len(b.Alloc[t]) {
			return false
		}
		for i := range a.Alloc[t] {
			if math.Float64bits(a.Alloc[t][i]) != math.Float64bits(b.Alloc[t][i]) {
				return false
			}
		}
	}
	return true
}

// checkRemapped fails unless ev is what the cache answered before entries
// were kept in canonical form: the leader's schedule moved to req's
// processor order by core.RemapScheduleProcs, with the leader's scalars.
func checkRemapped(t *testing.T, what string, leaderInst, req *core.Instance, leader, ev *Evaluation) {
	t.Helper()
	want := core.RemapScheduleProcs(leaderInst, req, leader.Schedule)
	if !sameSchedule(ev.Schedule, want) {
		t.Fatalf("%s: schedule\n%v\nwant (RemapScheduleProcs)\n%v", what, ev.Schedule.Alloc, want.Alloc)
	}
	if got, want := scalars(ev), scalars(leader); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: scalars %+v, want %+v", what, got, want)
	}
	if ev.Stats.Candidates != nil {
		t.Fatalf("%s: %d race records, want none", what, len(ev.Stats.Candidates))
	}
}

// checkCacheHitRemap solves one drawn instance as a leader, answers
// permuted siblings as coalesced followers and as hits (before and after
// other entries evict and refill the shard's other slot), and checks every
// answer against core.RemapScheduleProcs of the leader's answer.
func checkCacheHitRemap(t *testing.T, seed int64, shape uint8) {
	rng := rand.New(rand.NewSource(seed))
	name := "greedy-balance"
	if shape&0x40 != 0 {
		name = "portfolio"
	}
	inner, err := Default().New(name)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedSolver{Solver: inner, entered: make(chan struct{}), gate: make(chan struct{})}
	c := NewCache(1, 2)
	ctx := context.Background()
	base := remapInstance(rng, shape)

	type outcome struct {
		req *core.Instance
		ev  *Evaluation
		src Source
		err error
	}
	leaderOut := make(chan outcome, 1)
	go func() {
		ev, src, err := c.Evaluate(ctx, g, base)
		leaderOut <- outcome{base, ev, src, err}
	}()
	<-g.entered
	followers := make(chan outcome, 3)
	var wg sync.WaitGroup
	for range 3 {
		req := permuted(rng, base)
		wctx := newWaitingCtx()
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev, src, err := c.Evaluate(wctx, g, req)
			followers <- outcome{req, ev, src, err}
		}()
		<-wctx.waiting
	}
	close(g.gate)
	lo := <-leaderOut
	wg.Wait()
	close(followers)
	if lo.err != nil || lo.src != SourceSolve {
		t.Fatalf("leader: src=%v err=%v", lo.src, lo.err)
	}
	for fo := range followers {
		if fo.err != nil || fo.src != SourceCoalesced {
			t.Fatalf("follower: src=%v err=%v", fo.src, fo.err)
		}
		checkRemapped(t, "coalesced", base, fo.req, lo.ev, fo.ev)
	}

	hits := func(what string) {
		t.Helper()
		for _, req := range []*core.Instance{base, permuted(rng, base), permuted(rng, base)} {
			ev, src, err := c.Evaluate(ctx, inner, req)
			if err != nil || src != SourceCache {
				t.Fatalf("%s: src=%v err=%v, want a hit", what, src, err)
			}
			checkRemapped(t, what, base, req, lo.ev, ev)
		}
	}
	hits("hit")
	// Two other instances pass through the shard's second slot; the second
	// evicts the first and refills its entry and slab.
	for range 2 {
		other := remapInstance(rng, shape+1)
		if _, _, err := c.Evaluate(ctx, inner, other); err != nil {
			t.Fatal(err)
		}
		hits("hit after refill")
	}
}

func TestCacheHitRemapDifferential(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		checkCacheHitRemap(t, seed, uint8(seed*37))
	}
}

func FuzzCacheHitRemap(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(7), uint8(0x24))
	f.Add(int64(11), uint8(0x44))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		checkCacheHitRemap(t, seed, shape)
	})
}

// canonSolver solves the canonical form of an instance with greedy-balance
// and answers in the requester's processor order, so every processor order
// of one instance gets the same answer whichever order led the solve.
type canonSolver struct{}

func (canonSolver) Name() string { return "canon" }

func (canonSolver) Solve(ctx context.Context, inst *core.Instance) (*core.Schedule, Stats, error) {
	canon := &core.Instance{}
	for _, p := range inst.CanonicalProcOrder() {
		canon.Procs = append(canon.Procs, inst.Procs[p])
	}
	sched, err := greedybalance.New().Schedule(ctx, canon)
	if err != nil {
		return nil, Stats{}, err
	}
	return core.RemapScheduleProcs(canon, inst, sched), Stats{Solver: "canon", Winner: "canon"}, nil
}

// TestCacheConcurrentOneEntryShard races hits, inserts and evictions on a
// one-entry shard: every insert evicts and refills the only entry while
// other goroutines read it. Every answer must equal the schedule the
// request's own processor order gets.
func TestCacheConcurrentOneEntryShard(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var reqs []*core.Instance
	var want []*core.Schedule
	for i := 0; i < 3; i++ {
		base := remapInstance(rng, uint8(3+i))
		for range 3 {
			req := permuted(rng, base)
			sched, _, err := canonSolver{}.Solve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			reqs, want = append(reqs, req), append(want, sched)
		}
	}
	c := NewCache(1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for range 300 {
				i := rng.Intn(len(reqs))
				ev, _, err := c.Evaluate(context.Background(), canonSolver{}, reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !sameSchedule(ev.Schedule, want[i]) {
					t.Errorf("request %d: schedule %v, want %v", i, ev.Schedule.Alloc, want[i].Alloc)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries != 1 || st.Evictions == 0 || st.Hits == 0 {
		t.Fatalf("stats %+v, want one entry, evictions and hits", st)
	}
}

// TestPersistLoadsVersion1Fixture loads a version-1 snapshot written before
// entries were kept in canonical form (testdata/mkfixture.go says how it
// was made): its processors are in request order. Requests in the file's
// order and in permuted orders are answered from the cache exactly as
// core.RemapScheduleProcs moves the stored schedule, and the snapshot the
// cache writes back lists the same answers in canonical order.
func TestPersistLoadsVersion1Fixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot-v1", "shard-000.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file shardFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Version != 1 || len(file.Entries) == 0 {
		t.Fatalf("fixture version %d with %d entries", file.Version, len(file.Entries))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "shard-000.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(4, 64)
	p, err := NewPersister(c, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Load()
	if err != nil || rep.Restored != len(file.Entries) || rep.Skipped != 0 || rep.Quarantined != 0 {
		t.Fatalf("load: %+v, %v; want %d restored", rep, err, len(file.Entries))
	}
	rng := rand.New(rand.NewSource(1))
	for _, rec := range file.Entries {
		s := &stubSolver{name: rec.Solver}
		for _, req := range []*core.Instance{rec.Instance, permuted(rng, rec.Instance), permuted(rng, rec.Instance)} {
			ev, src, err := c.Evaluate(context.Background(), s, req)
			if err != nil || src != SourceCache {
				t.Fatalf("%s: src=%v err=%v, want a hit", rec.Solver, src, err)
			}
			checkRemapped(t, rec.Solver, rec.Instance, req, rec.Evaluation, ev)
		}
		if s.calls.Load() != 0 {
			t.Fatalf("%s: the solver ran against the restored cache", rec.Solver)
		}
	}

	// Written back, every record is canonical and answers as before.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var again []persistRecord
	files, err := p.SnapshotFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var sf shardFile
		if err := json.Unmarshal(data, &sf); err != nil || sf.Version != 1 {
			t.Fatalf("%s: version %d, %v", name, sf.Version, err)
		}
		again = append(again, sf.Entries...)
	}
	if len(again) != len(file.Entries) {
		t.Fatalf("%d records written back, want %d", len(again), len(file.Entries))
	}
	for _, rec := range again {
		for k, p := range rec.Instance.CanonicalProcOrder() {
			if k != p {
				t.Fatalf("%s: written instance is not in canonical order: %v", rec.Solver, rec.Instance.CanonicalProcOrder())
			}
		}
		var orig persistRecord
		for _, o := range file.Entries {
			if o.Solver == rec.Solver && o.Instance.Fingerprint() == rec.Instance.Fingerprint() {
				orig = o
			}
		}
		if orig.Instance == nil {
			t.Fatalf("%s: written record matches no fixture record", rec.Solver)
		}
		checkRemapped(t, "written back", orig.Instance, rec.Instance, orig.Evaluation, rec.Evaluation)
	}
}

// TestPersistSkipsRecordsWithoutSchedule: a record whose evaluation has no
// schedule has nothing to answer with; Load skips it and restores the rest.
func TestPersistSkipsRecordsWithoutSchedule(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot-v1", "shard-000.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file shardFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	file.Entries[0].Evaluation.Schedule = nil
	dir := t.TempDir()
	if data, err = json.Marshal(file); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-000.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(1, 64)
	p, err := NewPersister(c, dir, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Load()
	if err != nil || rep.Skipped != 1 || rep.Restored != len(file.Entries)-1 {
		t.Fatalf("load: %+v, %v; want 1 skipped and %d restored", rep, err, len(file.Entries)-1)
	}
	if c.Contains(file.Entries[0].Solver, file.Entries[0].Instance.Fingerprint()) {
		t.Fatal("the record without a schedule was restored")
	}
}
