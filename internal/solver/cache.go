package solver

import (
	"container/list"
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"

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
	entries  map[CacheKey]*list.Element
	order    *list.List // front = most recently used; values are *cacheEntry
	inflight map[CacheKey]*flight
	// gen counts positive mutations (inserts and their evictions) of the
	// shard; the persistence layer flushes only shards whose gen moved.
	gen uint64
}

type cacheEntry struct {
	key CacheKey
	// inst is the instance the evaluation was computed for. Later hits may
	// come from permuted-processor instances with the same fingerprint;
	// their schedules are remapped from inst's processor order.
	inst *core.Instance
	ev   *Evaluation
}

// flight is one in-progress solve that followers wait on.
type flight struct {
	done chan struct{}
	inst *core.Instance
	ev   *Evaluation
	err  error
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
			entries:  make(map[CacheKey]*list.Element),
			order:    list.New(),
			inflight: make(map[CacheKey]*flight),
		}
	}
	return c
}

// shard picks the shard for a key, mixing the solver name into the
// fingerprint's uniform bits so distinct solvers over the same instance
// spread out too.
func (c *Cache) shard(key CacheKey) *cacheShard {
	h := fnv.New64a()
	h.Write([]byte(key.Solver))
	h.Write(key.Fingerprint[:8])
	return &c.shards[h.Sum64()%uint64(len(c.shards))]
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
		st.Entries += s.order.Len()
		s.mu.Unlock()
	}
	return st
}

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

// EvaluateWithFingerprint is Evaluate for callers that already computed the
// instance's fingerprint (the serving layer reports it per response, so it
// computes the hash once and passes it here).
func (c *Cache) EvaluateWithFingerprint(ctx context.Context, s Solver, inst *core.Instance, fp core.Fingerprint) (*Evaluation, Source, error) {
	key := CacheKey{Solver: s.Name(), Fingerprint: fp}
	sh := c.shard(key)
	for {
		sh.mu.Lock()
		if el, ok := sh.entries[key]; ok {
			sh.order.MoveToFront(el)
			entry := el.Value.(*cacheEntry)
			ev, stored := entry.ev, entry.inst
			sh.mu.Unlock()
			c.hits.Add(1)
			return remapEvaluation(stored, inst, ev), SourceCache, nil
		}
		if fl, ok := sh.inflight[key]; ok {
			sh.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, SourceCoalesced, ctx.Err()
			}
			if fl.err == nil {
				c.coalesced.Add(1)
				return remapEvaluation(fl.inst, inst, fl.ev), SourceCoalesced, nil
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
		// The flight, and the entry after it, keep a view of the request's
		// processors rather than a deep clone: instances are never mutated
		// once they reach the cache (see core.Instance). The view carries no
		// memo fields, so the stored entry does not pin the request's
		// memoised bounds and fingerprint.
		fl := &flight{done: make(chan struct{}), inst: &core.Instance{Procs: inst.Procs}}
		sh.inflight[key] = fl
		sh.mu.Unlock()

		c.misses.Add(1)
		ev, err := Evaluate(ctx, s, inst)
		fl.ev, fl.err = withoutCandidates(ev), err

		sh.mu.Lock()
		delete(sh.inflight, key)
		if fl.err == nil {
			sh.insertLocked(key, fl.inst, fl.ev, &c.evictions)
		}
		sh.mu.Unlock()
		close(fl.done)
		return ev, SourceSolve, err
	}
}

// withoutCandidates is the evaluation as the cache stores and shares it:
// without the portfolio's per-member race records, which only the leader's
// caller reads and which would otherwise dominate the cache's live heap
// (each holds its member's wrapped error chain). The snapshot export drops
// them the same way.
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

// remapEvaluation adapts a stored evaluation to the requesting instance:
// makespan, bounds, waste and properties are invariant under processor
// permutation, but the schedule's columns follow the instance it was solved
// for, so a permuted requester gets a shallow copy with a remapped schedule.
func remapEvaluation(stored, req *core.Instance, ev *Evaluation) *Evaluation {
	sched := core.RemapScheduleProcs(stored, req, ev.Schedule)
	if sched == ev.Schedule {
		return ev
	}
	out := *ev
	out.Schedule = sched
	return &out
}

// Contains reports whether the cache currently holds a positive evaluation
// for the pair, without touching the LRU order or the hit counters. It is
// the peek the peer-fill path uses to decide whether a solve should be
// forwarded to the fingerprint's owning backend instead of run locally.
func (c *Cache) Contains(solverName string, fp core.Fingerprint) bool {
	key := CacheKey{Solver: solverName, Fingerprint: fp}
	sh := c.shard(key)
	sh.mu.Lock()
	_, ok := sh.entries[key]
	sh.mu.Unlock()
	return ok
}

// insertLocked stores the evaluation, evicting from the LRU tail when the
// shard is full. Callers hold the shard lock.
func (s *cacheShard) insertLocked(key CacheKey, inst *core.Instance, ev *Evaluation, evictions *atomic.Uint64) {
	s.gen++
	if el, ok := s.entries[key]; ok {
		entry := el.Value.(*cacheEntry)
		entry.inst, entry.ev = inst, ev
		s.order.MoveToFront(el)
		return
	}
	for s.order.Len() >= s.capacity {
		tail := s.order.Back()
		s.order.Remove(tail)
		delete(s.entries, tail.Value.(*cacheEntry).key)
		evictions.Add(1)
	}
	s.entries[key] = s.order.PushFront(&cacheEntry{key: key, inst: inst, ev: ev})
}
