package solver

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"crsharing/internal/core"
)

// Source tells where a cached evaluation came from.
type Source string

const (
	// SourceSolve marks a fresh solve performed by this call.
	SourceSolve Source = "solve"
	// SourceCache marks a hit on a previously stored evaluation.
	SourceCache Source = "cache"
	// SourceCoalesced marks a call that waited on an identical in-flight
	// solve instead of starting its own (singleflight deduplication).
	SourceCoalesced Source = "coalesced"
)

// CacheKey identifies a memoised evaluation: the same instance (by canonical
// fingerprint) solved by the same solver.
type CacheKey struct {
	Solver      string
	Fingerprint core.Fingerprint
}

// hash mixes the solver name into the fingerprint's uniform leading bytes
// (FNV-1a over both), so distinct solvers over the same instance spread
// across shards too. It picks the key's shard and indexes the shard's map.
func (k CacheKey) hash() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.Solver); i++ {
		h ^= uint64(k.Solver[i])
		h *= 1099511628211
	}
	for _, b := range k.Fingerprint[:8] {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Coalesced uint64
	Evictions uint64
	Entries   int
}

// Cache is a sharded LRU memo cache over solver evaluations with singleflight
// deduplication: concurrent Evaluate calls for the same (solver, fingerprint)
// pair trigger exactly one underlying solve, and every later call is served
// from the stored result. It is safe for concurrent use.
//
// Cached *Evaluation values are shared between callers and must be treated as
// immutable.
type Cache struct {
	shards []cacheShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	// entries indexes the resident entries by CacheKey.hash; a lookup
	// checks the full key, and an insert whose hash another key holds
	// displaces that entry like an eviction.
	entries map[uint64]*cacheEntry
	// head is the most recently used entry and tail the least; n counts
	// the entries on the list.
	head, tail *cacheEntry
	n          int
	inflight   map[CacheKey]*flight
	// names holds one copy of each set of names the shard's entries
	// answer with (see intern).
	names map[evalNames]*evalNames
	// gen counts positive mutations (inserts and their evictions) of the
	// shard; the persistence layer flushes only shards whose gen moved.
	gen uint64
}

// cacheEntry is one stored answer in canonical form: processors in the
// order core.Instance.CanonicalProcOrder gives the instance they were solved
// for, which every instance with the same fingerprint shares. The entry
// keeps the schedule's cells and the instance's jobs (for snapshots), not
// the request: a hit permutes the cells into the requester's order.
type cacheEntry struct {
	fp    core.Fingerprint
	names *evalNames

	prev, next *cacheEntry // LRU links; prev is the more recently used

	// slab holds the requirements of every job, canonical processor by
	// processor; then their sizes, when some size is not 1 (sized); then
	// the schedule's cells step by step, steps rows of len(counts) cells.
	slab   []float64
	counts []int32 // jobs on each canonical processor
	steps  int32
	sized  bool

	// The evaluation's scalars, as a hit returns them.
	warm         bool
	props        core.Properties
	makespan     int
	lowerBound   int
	seedMakespan int
	ratio        float64
	wasted       float64
	elapsed      time.Duration
	nodes        int64
	incumbents   int64
	kernelAllocs int64

	// shared is an evaluation this entry answered with that carries no
	// race records: the one the insert was given, or else the next one a
	// hit builds once the previous one is collected. A caller whose
	// schedule would equal its schedule cell for cell gets it again, so an
	// identical repeat request sees the same *Evaluation; the weak pointer
	// keeps none of it alive.
	shared weak.Pointer[Evaluation]
}

// evalNames are the names an entry answers with. The entries of one solver
// repeat a few of them, so a shard keeps one copy of each set.
type evalNames struct {
	key       string // CacheKey.Solver
	algorithm string // Evaluation.Algorithm
	solver    string // Stats.Solver
	winner    string // Stats.Winner
}

// maxShardNames bounds a shard's interned name sets; beyond it, an entry
// keeps its own copy.
const maxShardNames = 64

// flight is one in-progress solve that followers wait on.
type flight struct {
	done chan struct{}
	// followers counts the callers that joined the flight; it is guarded
	// by the shard lock, and final once the flight leaves inflight.
	followers int
	// ev (without race records) and order, the leader's canonical
	// processor order, are set only when followers joined.
	ev    *Evaluation
	order []int
	err   error
}

// NewCache returns a cache with the given number of shards and total entry
// capacity (split evenly across shards). Values below 1 are raised to 1, so
// the zero-ish configuration still yields a working single-entry cache.
func NewCache(shards, capacity int) *Cache {
	if shards < 1 {
		shards = 1
	}
	if capacity < shards {
		capacity = shards
	}
	c := &Cache{shards: make([]cacheShard, shards)}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: per,
			entries:  make(map[uint64]*cacheEntry),
			inflight: make(map[CacheKey]*flight),
			names:    make(map[evalNames]*evalNames),
		}
	}
	return c
}

// shard picks the shard for a key hash.
func (c *Cache) shard(h uint64) *cacheShard {
	return &c.shards[h%uint64(len(c.shards))]
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.n
		s.mu.Unlock()
	}
	return st
}

// procOrderBuf is room for the canonical processor order of a typical
// instance on the stack.
type procOrderBuf [32]int

// Evaluate is the cache-aware counterpart of Evaluate: it returns the stored
// evaluation for (s.Name(), inst.Fingerprint()) when present, joins an
// identical in-flight solve when one is running, and otherwise solves through
// Evaluate and stores the result. Solve errors are not cached; a leader that
// fails with a context error releases its followers to retry under their own
// contexts, so one caller's deadline never poisons another's.
//
// The fingerprint normalizes processor order, so a hit may have been solved
// for a permuted-processor sibling of inst; the returned evaluation's
// schedule is always remapped to inst's own processor order.
func (c *Cache) Evaluate(ctx context.Context, s Solver, inst *core.Instance) (*Evaluation, Source, error) {
	return c.EvaluateWithFingerprint(ctx, s, inst, inst.Fingerprint())
}

// Lookup returns the stored evaluation for (solverName, fp) in inst's
// processor order and counts the hit; it reports false, counting nothing,
// when no evaluation is stored. It neither joins nor starts a solve, so a
// caller can answer a hit before it prepares one.
func (c *Cache) Lookup(solverName string, inst *core.Instance, fp core.Fingerprint) (*Evaluation, bool) {
	key := CacheKey{Solver: solverName, Fingerprint: fp}
	h := key.hash()
	sh := c.shard(h)
	var buf procOrderBuf
	order := inst.AppendCanonicalProcOrder(buf[:0])
	sh.mu.Lock()
	e := sh.lookup(h, key)
	if e == nil {
		sh.mu.Unlock()
		return nil, false
	}
	ev := sh.hitLocked(e, order)
	sh.mu.Unlock()
	c.hits.Add(1)
	return ev, true
}

// EvaluateWithFingerprint is Evaluate for callers that already computed the
// instance's fingerprint (the serving layer reports it per response, so it
// computes the hash once and passes it here).
func (c *Cache) EvaluateWithFingerprint(ctx context.Context, s Solver, inst *core.Instance, fp core.Fingerprint) (*Evaluation, Source, error) {
	key := CacheKey{Solver: s.Name(), Fingerprint: fp}
	h := key.hash()
	sh := c.shard(h)
	var buf procOrderBuf
	order := inst.AppendCanonicalProcOrder(buf[:0])
	for {
		sh.mu.Lock()
		if e := sh.lookup(h, key); e != nil {
			ev := sh.hitLocked(e, order)
			sh.mu.Unlock()
			c.hits.Add(1)
			return ev, SourceCache, nil
		}
		if fl, ok := sh.inflight[key]; ok {
			fl.followers++
			sh.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, SourceCoalesced, ctx.Err()
			}
			if fl.err == nil {
				c.coalesced.Add(1)
				return fl.answer(order), SourceCoalesced, nil
			}
			if transientError(fl.err) {
				// The leader was cancelled or shed, not the solve refuted;
				// try again (possibly becoming the new leader) under our own
				// context and admission quota.
				if ctx.Err() != nil {
					return nil, SourceCoalesced, ctx.Err()
				}
				continue
			}
			c.coalesced.Add(1)
			return nil, SourceCoalesced, fl.err
		}
		fl := &flight{done: make(chan struct{})}
		sh.inflight[key] = fl
		sh.mu.Unlock()

		c.misses.Add(1)
		ev, err := Evaluate(ctx, s, inst)

		sh.mu.Lock()
		delete(sh.inflight, key)
		fl.err = err
		if err == nil {
			// What identical-order callers may share: the followers' copy
			// when there are followers, else the leader's own evaluation
			// unless it carries race records.
			var share *Evaluation
			if fl.followers > 0 {
				fl.ev, fl.order = withoutCandidates(ev), slices.Clone(order)
				share = fl.ev
			} else if ev.Stats.Candidates == nil {
				share = ev
			}
			sh.insertLocked(h, key, inst, order, ev, share, &c.evictions)
		}
		sh.mu.Unlock()
		close(fl.done)
		return ev, SourceSolve, err
	}
}

// withoutCandidates is the evaluation as the cache shares it: without the
// portfolio's per-member race records, which only the leader's caller reads
// (each holds its member's wrapped error chain).
func withoutCandidates(ev *Evaluation) *Evaluation {
	if ev == nil || ev.Stats.Candidates == nil {
		return ev
	}
	out := *ev
	out.Stats.Candidates = nil
	return &out
}

// transientError reports whether a solve error is tied to this caller rather
// than the instance: context cancellation/expiry, or an admission shed
// (detected structurally via a Shed() method so the engine's error type does
// not have to be imported). Followers holding one retry as their own leader.
func transientError(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var shed interface{ Shed() bool }
	return errors.As(err, &shed) && shed.Shed()
}

// answer adapts the leader's evaluation to a follower whose canonical
// processor order is order: the same evaluation when the orders agree (the
// instances are then equal), else a copy whose schedule column order[k]
// takes the leader's column fl.order[k].
func (fl *flight) answer(order []int) *Evaluation {
	if slices.Equal(order, fl.order) {
		return fl.ev
	}
	src := fl.ev.Schedule
	out := *fl.ev
	out.Schedule = core.NewSchedule(src.Steps(), len(order))
	for t, row := range out.Schedule.Alloc {
		for k, p := range order {
			row[p] = src.Share(t, fl.order[k])
		}
	}
	return &out
}

// Contains reports whether the cache currently holds a positive evaluation
// for the pair, without touching the LRU order or the hit counters. It is
// the peek the peer-fill path uses to decide whether a solve should be
// forwarded to the fingerprint's owning backend instead of run locally.
func (c *Cache) Contains(solverName string, fp core.Fingerprint) bool {
	key := CacheKey{Solver: solverName, Fingerprint: fp}
	h := key.hash()
	sh := c.shard(h)
	sh.mu.Lock()
	ok := sh.lookup(h, key) != nil
	sh.mu.Unlock()
	return ok
}

// lookup returns the entry stored under key, or nil. Callers hold the shard
// lock.
func (s *cacheShard) lookup(h uint64, key CacheKey) *cacheEntry {
	if e := s.entries[h]; e != nil && e.is(key) {
		return e
	}
	return nil
}

func (e *cacheEntry) is(key CacheKey) bool {
	return e.fp == key.Fingerprint && e.names.key == key.Solver
}

// hitLocked marks e most recently used and answers it in the processor
// order of the requester. Callers hold the shard lock, so an insert cannot
// refill the entry while its cells are read.
func (s *cacheShard) hitLocked(e *cacheEntry, order []int) *Evaluation {
	s.unlink(e)
	s.pushFront(e)
	shared := e.shared.Value()
	if shared != nil && e.sameCells(shared.Schedule, order) {
		return shared
	}
	ev := e.evaluation(order)
	if shared == nil {
		e.shared = weak.Make(ev)
	}
	return ev
}

// insertLocked stores the evaluation ev of inst, whose canonical processor
// order is order, evicting from the LRU tail when the shard is full; share,
// when not nil, is the evaluation identical-order requests may be given.
// The evicted entry, and its slab when it fits, is reused. Callers hold the
// shard lock.
func (s *cacheShard) insertLocked(h uint64, key CacheKey, inst *core.Instance, order []int, ev, share *Evaluation, evictions *atomic.Uint64) {
	s.gen++
	e := s.entries[h]
	switch {
	case e != nil:
		// The key itself, refreshed; or another key with the same hash,
		// displaced.
		if !e.is(key) {
			evictions.Add(1)
		}
		s.unlink(e)
	case s.n >= s.capacity:
		e = s.tail
		s.unlink(e)
		delete(s.entries, CacheKey{Solver: e.names.key, Fingerprint: e.fp}.hash())
		evictions.Add(1)
	default:
		e = new(cacheEntry)
	}
	e.fill(s, key, inst, order, ev)
	e.shared = weak.Make(share) // the zero Pointer when share is nil
	s.entries[h] = e
	s.pushFront(e)
}

// intern returns the shard's copy of names.
func (s *cacheShard) intern(names evalNames) *evalNames {
	if p, ok := s.names[names]; ok {
		return p
	}
	p := &names
	if len(s.names) < maxShardNames {
		s.names[names] = p
	}
	return p
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	} else {
		s.tail = e
	}
	s.head = e
	s.n++
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	s.n--
}

// fill writes the canonical form of ev, solved for inst, into e, reusing
// e's slab and counts when they fit.
func (e *cacheEntry) fill(s *cacheShard, key CacheKey, inst *core.Instance, order []int, ev *Evaluation) {
	m, jobs, steps := len(order), inst.TotalJobs(), ev.Schedule.Steps()
	sized := false
	for _, js := range inst.Procs {
		for _, j := range js {
			sized = sized || j.Size != 1
		}
	}
	need := jobs + steps*m
	if sized {
		need += jobs
	}
	e.slab = reuse(e.slab, need)
	e.counts = reuse(e.counts, m)
	e.steps, e.sized = int32(steps), sized
	x := 0
	for k, p := range order {
		e.counts[k] = int32(len(inst.Procs[p]))
		for _, j := range inst.Procs[p] {
			e.slab[x] = j.Req
			if sized {
				e.slab[jobs+x] = j.Size
			}
			x++
		}
	}
	cells := e.cells()
	for t := range steps {
		for k, p := range order {
			cells[t*m+k] = ev.Schedule.Share(t, p)
		}
	}

	e.fp = key.Fingerprint
	e.names = s.intern(evalNames{key: key.Solver, algorithm: ev.Algorithm, solver: ev.Stats.Solver, winner: ev.Stats.Winner})
	st := &ev.Stats
	e.warm, e.props = st.WarmStart, ev.Properties
	e.makespan, e.lowerBound, e.seedMakespan = ev.Makespan, ev.LowerBound, st.SeedMakespan
	e.ratio, e.wasted = ev.Ratio, ev.Wasted
	e.elapsed, e.nodes, e.incumbents, e.kernelAllocs = st.Elapsed, st.Nodes, st.Incumbents, st.KernelAllocs
}

// reuse returns buf resliced to n when its capacity holds n without
// pinning more than twice that, else a new slice whose capacity fills its
// allocation's size class, so that a later, slightly larger answer can
// reuse it too.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) >= n && cap(buf) <= 2*n {
		return buf[:n]
	}
	return slices.Grow([]T(nil), n)[:n]
}

// cells returns the schedule part of the slab.
func (e *cacheEntry) cells() []float64 {
	return e.slab[len(e.slab)-int(e.steps)*len(e.counts):]
}

// sameCells reports whether sched is, bit for bit, the schedule e answers
// with in the processor order order.
func (e *cacheEntry) sameCells(sched *core.Schedule, order []int) bool {
	m := len(order)
	if sched.Steps() != int(e.steps) || sched.NumProcessors() != m {
		return false
	}
	cells := e.cells()
	for t, row := range sched.Alloc {
		if len(row) != m {
			return false
		}
		for k, p := range order {
			if math.Float64bits(row[p]) != math.Float64bits(cells[t*m+k]) {
				return false
			}
		}
	}
	return true
}

// evaluation builds the entry's evaluation with its schedule in the
// processor order order: column order[k] takes stored column k.
func (e *cacheEntry) evaluation(order []int) *Evaluation {
	m := len(order)
	sched := core.NewSchedule(int(e.steps), m)
	cells := e.cells()
	for t, row := range sched.Alloc {
		for k, p := range order {
			row[p] = cells[t*m+k]
		}
	}
	return &Evaluation{
		Algorithm:  e.names.algorithm,
		Schedule:   sched,
		Makespan:   e.makespan,
		LowerBound: e.lowerBound,
		Ratio:      e.ratio,
		Properties: e.props,
		Wasted:     e.wasted,
		Stats: Stats{
			Solver:       e.names.solver,
			Winner:       e.names.winner,
			Elapsed:      e.elapsed,
			Nodes:        e.nodes,
			Incumbents:   e.incumbents,
			KernelAllocs: e.kernelAllocs,
			WarmStart:    e.warm,
			SeedMakespan: e.seedMakespan,
		},
	}
}

// instance rebuilds the canonical instance the entry was solved for.
func (e *cacheEntry) instance() *core.Instance {
	jobs := 0
	for _, n := range e.counts {
		jobs += int(n)
	}
	all := make([]core.Job, jobs)
	for x := range all {
		all[x] = core.Job{Req: e.slab[x], Size: 1}
		if e.sized {
			all[x].Size = e.slab[jobs+x]
		}
	}
	inst := &core.Instance{Procs: make([][]core.Job, len(e.counts))}
	for k, n := range e.counts {
		inst.Procs[k], all = all[:n:n], all[n:]
	}
	return inst
}
