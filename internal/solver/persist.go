package solver

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/durable"
)

// persistRecord is the on-disk form of one positive cache entry. The
// fingerprint is not stored: it is recomputed from the instance on load, so a
// snapshot can never claim a key its instance does not hash to.
type persistRecord struct {
	Solver     string         `json:"solver"`
	Instance   *core.Instance `json:"instance"`
	Evaluation *Evaluation    `json:"evaluation"`
}

// shardFile is one snapshot file: the positive entries of one cache shard,
// ordered LRU first so replaying the file re-establishes the recency order.
type shardFile struct {
	Version int             `json:"version"`
	Entries []persistRecord `json:"entries"`
}

// persistVersion guards the snapshot format; files with a different version
// are quarantined like corrupt ones.
const persistVersion = 1

// LoadReport says what Persister.Load found on disk.
type LoadReport struct {
	// Restored counts cache entries warmed from the snapshot.
	Restored int
	// Skipped counts records dropped for failing validation (nil or invalid
	// instance, nil evaluation or schedule) inside otherwise readable files.
	Skipped int
	// Quarantined counts unreadable snapshot files; each was renamed to
	// <name>.corrupt and startup proceeded without it.
	Quarantined int
}

// Persister gives a Cache a disk life, following the jobs.FileStore pattern:
// one JSON file per shard, written through a temporary file and an atomic
// rename (a crash mid-flush never corrupts the previous snapshot), loaded on
// start, flushed periodically and at shutdown.
//
// Load before Start; Close stops the flush loop and writes a final snapshot.
type Persister struct {
	cache    *Cache
	dir      string
	interval time.Duration

	mu      sync.Mutex // serialises Flush against itself and Close
	flushed []uint64   // per-shard gen at last flush; 0 = never flushed

	stop     chan struct{}
	done     chan struct{}
	startOne sync.Once
	stopOne  sync.Once
}

// NewPersister creates the snapshot directory if needed and returns a
// persister flushing dirty shards every interval (default 30s) once started.
func NewPersister(c *Cache, dir string, interval time.Duration) (*Persister, error) {
	if c == nil {
		return nil, fmt.Errorf("solver: persister needs a cache")
	}
	if dir == "" {
		return nil, fmt.Errorf("solver: empty cache snapshot directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("solver: creating cache snapshot directory: %w", err)
	}
	if interval <= 0 {
		interval = 30 * time.Second
	}
	return &Persister{
		cache:    c,
		dir:      dir,
		interval: interval,
		flushed:  make([]uint64, len(c.shards)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// Dir returns the snapshot directory.
func (p *Persister) Dir() string { return p.dir }

// Load warms the cache from the snapshot directory. Unreadable or
// wrong-version files are renamed to <name>.corrupt and skipped — a corrupt
// snapshot degrades to a cold shard, never a failed startup. Records are
// re-keyed by recomputing each instance's fingerprint, so snapshots survive
// changes to the shard count (stale files from a wider-sharded run are
// absorbed and deleted).
func (p *Persister) Load() (LoadReport, error) {
	var rep LoadReport
	keep := func(name string) bool { return strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".json") }
	decode := func(name string, data []byte) error {
		var sf shardFile
		if err := json.Unmarshal(data, &sf); err != nil {
			return err
		}
		if sf.Version != persistVersion {
			return fmt.Errorf("snapshot version %d", sf.Version)
		}
		for _, rec := range sf.Entries {
			if rec.Solver == "" || rec.Instance == nil || rec.Evaluation == nil ||
				rec.Evaluation.Schedule == nil || rec.Instance.Validate() != nil {
				rep.Skipped++
				continue
			}
			p.cache.seed(rec.Solver, rec.Instance, rec.Evaluation)
			rep.Restored++
		}
		// The file's entries now live in the current cache (possibly under a
		// different shard layout); drop files outside the current range so
		// they are not re-loaded forever after a shard-count change.
		var idx int
		if _, serr := fmt.Sscanf(name, "shard-%d.json", &idx); serr == nil && idx >= len(p.cache.shards) {
			os.Remove(filepath.Join(p.dir, name))
		}
		return nil
	}
	var err error
	if rep.Quarantined, err = durable.LoadDir(p.dir, keep, decode); err != nil {
		return rep, fmt.Errorf("solver: reading cache snapshot directory: %w", err)
	}
	return rep, nil
}

// Start launches the periodic flush loop. Safe to call once.
func (p *Persister) Start() {
	p.startOne.Do(func() {
		go func() {
			defer close(p.done)
			ticker := time.NewTicker(p.interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					p.Flush() // errors are retried next tick; Close reports the last one
				case <-p.stop:
					return
				}
			}
		}()
	})
}

// Flush snapshots every shard whose contents changed since its last flush.
func (p *Persister) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	for i := range p.cache.shards {
		recs, gen, ok := p.cache.exportShard(i, p.flushed[i])
		if !ok {
			continue // unchanged since last flush
		}
		if err := p.writeShard(i, recs); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		p.flushed[i] = gen
	}
	return firstErr
}

// writeShard writes one shard file atomically and durably (durable.WriteFile
// fsyncs the file and the directory). Snapshots are 0644 so operators and
// sidecar tooling can read them.
func (p *Persister) writeShard(i int, recs []persistRecord) error {
	data, err := json.Marshal(shardFile{Version: persistVersion, Entries: recs})
	if err != nil {
		return fmt.Errorf("solver: encoding cache shard %d: %w", i, err)
	}
	if err := durable.WriteFile(p.dir, fmt.Sprintf("shard-%03d.json", i), data, 0o644); err != nil {
		return fmt.Errorf("solver: writing cache shard %d: %w", i, err)
	}
	return nil
}

// Close stops the flush loop (if started) and writes a final snapshot.
func (p *Persister) Close() error {
	p.stopOne.Do(func() {
		close(p.stop)
	})
	p.startOne.Do(func() { close(p.done) }) // never started: nothing to wait for
	<-p.done
	return p.Flush()
}

// exportShard snapshots shard i's positive entries, LRU first, unless its
// generation still equals since (no change). Each record holds the entry's
// canonical instance and schedule, built under the shard lock because an
// insert may refill an evicted entry; the evaluation carries no portfolio
// race records, but the winner/nodes/elapsed stats that telemetry replays
// on warm hits.
func (c *Cache) exportShard(i int, since uint64) (recs []persistRecord, gen uint64, changed bool) {
	s := &c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen == since {
		return nil, s.gen, false
	}
	recs = make([]persistRecord, 0, s.n)
	var identity []int // the canonical order itself
	for e := s.tail; e != nil; e = e.prev {
		for len(identity) < len(e.counts) {
			identity = append(identity, len(identity))
		}
		recs = append(recs, persistRecord{
			Solver:     e.names.key,
			Instance:   e.instance(),
			Evaluation: e.evaluation(identity[:len(e.counts)]),
		})
	}
	return recs, s.gen, true
}

// seed inserts a restored entry under its recomputed fingerprint, in
// canonical processor order whatever order the snapshot lists; used by
// Persister.Load. Seeding counts as a mutation (the shard becomes dirty), so
// a snapshot loaded under a different shard layout is re-filed on the next
// flush.
func (c *Cache) seed(solverName string, inst *core.Instance, ev *Evaluation) {
	key := CacheKey{Solver: solverName, Fingerprint: inst.Fingerprint()}
	h := key.hash()
	sh := c.shard(h)
	order := inst.CanonicalProcOrder()
	sh.mu.Lock()
	sh.insertLocked(h, key, inst, order, ev, nil, &c.evictions)
	sh.mu.Unlock()
}

// SnapshotFiles lists the snapshot file names currently in dir (sorted);
// exposed for tests and operational tooling. Quarantined *.corrupt files and
// in-flight temp files are not snapshots and are filtered out.
func (p *Persister) SnapshotFiles() ([]string, error) {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "shard-") && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}
