package solver

import (
	"container/list"
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

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
	// SourceNegative marks a hit on the negative cache: the same request
	// failed deterministically before, and the remembered error is replayed
	// without re-solving (or re-entering admission).
	SourceNegative Source = "negative"
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
	// NegativeHits counts requests answered by replaying a remembered
	// deterministic failure; NegativeEntries is the current number of
	// remembered failures (expired entries are dropped lazily).
	NegativeHits    uint64
	NegativeEntries int
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

	// neighbors is the coarse shape-key index over solved instances that
	// turns misses into warm-start hints; see neighbor.go.
	neighbors *neighborIndex

	// negTTL is the negative-cache lifetime in nanoseconds; 0 disables
	// negative caching (the default).
	negTTL atomic.Int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
	negHits   atomic.Uint64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[CacheKey]*list.Element
	order    *list.List // front = most recently used; values are *cacheEntry
	inflight map[CacheKey]*flight
	// negative remembers deterministic solve failures until they expire; it
	// is bounded by the shard capacity (arbitrary eviction when full —
	// negative entries are cheap hints, not results).
	negative map[CacheKey]negEntry
	// gen counts positive mutations (inserts and their evictions) of the
	// shard; the persistence layer flushes only shards whose gen moved.
	gen uint64
}

// negEntry is one remembered failure.
type negEntry struct {
	msg     string
	expires time.Time
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
	c := &Cache{shards: make([]cacheShard, shards), neighbors: newNeighborIndex()}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: per,
			entries:  make(map[CacheKey]*list.Element),
			order:    list.New(),
			inflight: make(map[CacheKey]*flight),
			negative: make(map[CacheKey]negEntry),
		}
	}
	return c
}

// SetNegativeTTL enables negative caching: deterministic solve failures
// (anything but context cancellation/expiry and admission sheds) are
// remembered for ttl and replayed to identical requests without re-solving.
// A ttl of 0 disables it. Safe to call concurrently with lookups.
func (c *Cache) SetNegativeTTL(ttl time.Duration) {
	if ttl < 0 {
		ttl = 0
	}
	c.negTTL.Store(int64(ttl))
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
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Coalesced:    c.coalesced.Load(),
		Evictions:    c.evictions.Load(),
		NegativeHits: c.negHits.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.order.Len()
		st.NegativeEntries += len(s.negative)
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
		if ne, ok := sh.negative[key]; ok {
			if c.negTTL.Load() > 0 && time.Now().Before(ne.expires) {
				sh.mu.Unlock()
				c.negHits.Add(1)
				return nil, SourceNegative, &CachedFailure{Msg: ne.msg}
			}
			delete(sh.negative, key) // expired (or negative caching turned off)
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
		fl := &flight{done: make(chan struct{}), inst: inst.Clone()}
		sh.inflight[key] = fl
		sh.mu.Unlock()

		c.misses.Add(1)
		fl.ev, fl.err = Evaluate(ctx, s, inst)

		sh.mu.Lock()
		delete(sh.inflight, key)
		if fl.err == nil {
			sh.insertLocked(key, fl.inst, fl.ev, &c.evictions)
			delete(sh.negative, key)
		} else if ttl := time.Duration(c.negTTL.Load()); ttl > 0 && !transientError(fl.err) {
			sh.storeNegativeLocked(key, fl.err, time.Now().Add(ttl))
		}
		sh.mu.Unlock()
		if fl.err == nil {
			// File the fresh solve in the neighbor index (its own lock) so
			// near-duplicate future misses can warm-start from it.
			c.rememberNeighbor(key.Solver, fl.inst, fl.ev)
		}
		close(fl.done)
		return fl.ev, SourceSolve, fl.err
	}
}

// CachedFailure is the error a negative-cache hit replays: the message of
// the original deterministic failure, answered without re-solving.
type CachedFailure struct{ Msg string }

func (e *CachedFailure) Error() string { return e.Msg }

// transientError reports whether a solve error is tied to this caller rather
// than the instance: context cancellation/expiry, or an admission shed
// (detected structurally via a Shed() method so the engine's error type does
// not have to be imported). Transient errors are never negative-cached, and
// followers holding one retry as their own leader.
func transientError(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var shed interface{ Shed() bool }
	return errors.As(err, &shed) && shed.Shed()
}

// storeNegativeLocked remembers a failure, keeping the negative map within
// the shard capacity: expired entries are collected first, then arbitrary
// ones — a dropped negative entry only costs a redundant future solve.
func (s *cacheShard) storeNegativeLocked(key CacheKey, err error, expires time.Time) {
	if len(s.negative) >= s.capacity {
		now := time.Now()
		for k, ne := range s.negative {
			if !now.Before(ne.expires) {
				delete(s.negative, k)
			}
		}
		for k := range s.negative {
			if len(s.negative) < s.capacity {
				break
			}
			delete(s.negative, k)
		}
	}
	s.negative[key] = negEntry{msg: err.Error(), expires: expires}
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
