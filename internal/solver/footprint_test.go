package solver

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// footprintAnswers is how many answers TestCacheEntryFootprint inserts per
// case.
const footprintAnswers = 4096

// TestCacheEntryFootprint bounds the live heap one cached answer costs: the
// entry, its share of the shard map and everything the entry keeps
// reachable. It inserts answers into a cache large enough to keep
// them all and reads the live heap before and after, each time after two
// forced collections (the second empties sync.Pool's victim cache, so pooled
// kernel scratch is not counted).
func TestCacheEntryFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	if testing.Short() {
		t.Skip("solves 8,192 instances")
	}
	bb, err := Default().New("branch-and-bound")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		s     Solver
		src   func(seed int64) func() *core.Instance
		limit float64 // bytes per entry
	}{
		// online-chain's shape: mutation chains of m=10 Partition gadgets
		// (30 unit jobs before the chain's mutations).
		{"gadget chain m=10 branch-and-bound", bb, footprintChains, 1100},
		// fresh-small's shape: m=2-3, 2-4 jobs a processor, raced.
		{"small m=2-3 portfolio", NewDefaultPortfolio(), func(seed int64) func() *core.Instance {
			rng := rand.New(rand.NewSource(seed))
			return func() *core.Instance { return gen.RandomUneven(rng, 2+rng.Intn(2), 2, 4, 0.05, 0.95) }
		}, 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := entryFootprint(t, tc.s, tc.src)
			t.Logf("%.0f B per cached answer (limit %.0f)", got, tc.limit)
			if got > tc.limit {
				t.Fatalf("a cached answer costs %.0f B of live heap, want at most %.0f", got, tc.limit)
			}
		})
	}
}

// footprintChains returns a generator walking 12-instance mutation chains
// of m=10 Partition gadgets, as servebench's online-chain workload does.
func footprintChains(seed int64) func() *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	var chain []*core.Instance
	return func() *core.Instance {
		if len(chain) == 0 {
			chain = gen.MutateChain(rng, footprintGadget(rng), 11)
		}
		inst := chain[0]
		chain = chain[1:]
		return inst
	}
}

func footprintGadget(rng *rand.Rand) *core.Instance {
	elems := make([]int64, 10)
	var sum int64
	for i := range elems {
		elems[i] = 10 + rng.Int63n(40)
		sum += elems[i]
	}
	if sum%2 != 0 {
		elems[0]++
	}
	inst, err := gen.PartitionGadget(elems, 0.01)
	if err != nil {
		panic(err)
	}
	return inst
}

// entryFootprint returns the live heap per entry after footprintAnswers
// answers of s went through a cache with room for all of them.
// The requests are dropped as they are answered, so whatever they leave
// live is the cache's.
func entryFootprint(t *testing.T, s Solver, src func(seed int64) func() *core.Instance) float64 {
	next := src(1)
	c := NewCache(16, 4*footprintAnswers)
	ctx := context.Background()
	// One answer outside the measurement builds whatever the solver sets
	// up once.
	if _, err := Evaluate(ctx, s, src(2)()); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for range footprintAnswers {
		inst := next()
		if _, _, err := c.EvaluateWithFingerprint(ctx, s, inst, inst.Fingerprint()); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	// A mutation chain can step back onto an instance it already passed,
	// so a few requests hit; the cost is per stored entry.
	st := c.Stats()
	if st.Evictions != 0 || st.Entries < footprintAnswers*9/10 {
		t.Fatalf("%d entries and %d evictions, want about %d entries and none evicted", st.Entries, st.Evictions, footprintAnswers)
	}
	runtime.KeepAlive(c)
	return float64(after-before) / float64(st.Entries)
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
