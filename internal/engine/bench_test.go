package engine

import (
	"context"
	"math/rand"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/solver"
)

func benchEngine(b *testing.B, cache *solver.Cache) *Engine {
	b.Helper()
	eng, err := New(Config{
		Registry:      solver.Default(),
		Cache:         cache,
		DefaultSolver: "greedy-balance",
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func benchEngineInstance() *core.Instance {
	return core.NewInstance(
		[]float64{0.9, 0.3, 0.5, 0.7, 0.2, 0.8},
		[]float64{0.2, 0.2, 0.2, 0.6},
		[]float64{0.6, 0.6, 0.4},
	)
}

// BenchmarkEngineSolveFresh measures the full pipeline without a cache:
// admission, solve, execution, telemetry assembly.
func BenchmarkEngineSolveFresh(b *testing.B) {
	eng := benchEngine(b, nil)
	inst := benchEngineInstance()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Solve(ctx, Request{Instance: inst}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveChain measures fresh branch-and-bound solves through a
// cached engine in online-chain's shape: each op solves one 12-instance
// gen.MutateChain of a 10-element Partition gadget (Theorem 4). Two chains
// alternate in a 12-entry cache, so each chain evicts the other and every
// request misses: the op is 12 cache misses, 12 kernel solves, 12
// evaluations and 12 cache inserts.
func BenchmarkEngineSolveChain(b *testing.B) {
	eng, err := New(Config{
		Registry:      solver.Default(),
		Cache:         solver.NewCache(1, 12),
		DefaultSolver: "branch-and-bound",
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var chains [2][]*core.Instance
	for c := range chains {
		base, err := gen.PartitionGadget([]int64{17 + int64(c), 23, 29, 31, 41, 17, 23, 29, 31, 41 + int64(c)}, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		chains[c] = gen.MutateChain(rng, base, 11)
	}
	ctx := context.Background()
	solveChain := func(chain []*core.Instance) {
		for _, inst := range chain {
			res, err := eng.Solve(ctx, Request{Instance: inst})
			if err != nil {
				b.Fatal(err)
			}
			if res.Source != solver.SourceSolve {
				b.Fatalf("source %q, want a fresh solve", res.Source)
			}
		}
	}
	solveChain(chains[1]) // warm the kernels' scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveChain(chains[i%2])
	}
}

// BenchmarkEngineSolveCacheHit measures the pipeline's replay path: the
// request is answered from the memo cache, so the cost is fingerprinting
// plus telemetry assembly.
func BenchmarkEngineSolveCacheHit(b *testing.B) {
	eng := benchEngine(b, solver.NewCache(4, 64))
	inst := benchEngineInstance()
	ctx := context.Background()
	if _, err := eng.Solve(ctx, Request{Instance: inst}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Solve(ctx, Request{Instance: inst})
		if err != nil {
			b.Fatal(err)
		}
		if res.Source == solver.SourceSolve {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkEngineSolveCacheHitPrehashed is the cache-hit path when the
// caller supplies the fingerprint (as the job manager does).
func BenchmarkEngineSolveCacheHitPrehashed(b *testing.B) {
	eng := benchEngine(b, solver.NewCache(4, 64))
	inst := benchEngineInstance()
	fp := inst.Fingerprint()
	ctx := context.Background()
	if _, err := eng.Solve(ctx, Request{Instance: inst}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Solve(ctx, Request{Instance: inst, Fingerprint: &fp}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineSolveEachCacheHitPrehashed is the batch replay counterpart
// of BenchmarkEngineSolveCacheHitPrehashed: every instance's fingerprint is
// computed once at the batch split (SolveEach hashes before submitting, and
// the memoised fingerprint makes later calls free), so the per-shard cache
// route never re-hashes.
func BenchmarkEngineSolveEachCacheHitPrehashed(b *testing.B) {
	eng := benchEngine(b, solver.NewCache(4, 256))
	insts := make([]*core.Instance, 16)
	for i := range insts {
		insts[i] = core.NewInstance([]float64{float64(i+1) / 20, 0.5}, []float64{0.25})
		insts[i].Fingerprint() // memoise, as the batch split does
	}
	ctx := context.Background()
	eng.SolveEach(ctx, "", "", insts, 8) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes := eng.SolveEach(ctx, "", "", insts, 8)
		for _, out := range outcomes {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
			if out.Result.Source == solver.SourceSolve {
				b.Fatal("expected a cache hit")
			}
		}
	}
}

// BenchmarkAdmissionUncontended measures one uncontended acquire/release
// pair of the fair scheduler — the cost every fresh solve pays even when the
// system is idle, gated by benchdiff in CI.
func BenchmarkAdmissionUncontended(b *testing.B) {
	sem := newFairScheduler(16, nil, 0)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sem.Acquire(ctx, ""); err != nil {
			b.Fatal(err)
		}
		sem.Release("")
	}
}

// BenchmarkAdmissionMultiTenant measures the uncontended acquire/release
// pair when the request names a configured (non-default) tenant — the lookup
// plus quota bookkeeping on top of the base path.
func BenchmarkAdmissionMultiTenant(b *testing.B) {
	sem := newFairScheduler(16, map[string]TenantConfig{
		"gold": {Weight: 3, MaxInflight: 12},
		"free": {Weight: 1, MaxInflight: 4, Priority: 1},
	}, 0)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sem.Acquire(ctx, "gold"); err != nil {
			b.Fatal(err)
		}
		sem.Release("gold")
	}
}

// BenchmarkSolveEach measures the batch fan-out over a cached corpus.
func BenchmarkSolveEach(b *testing.B) {
	eng := benchEngine(b, solver.NewCache(4, 256))
	insts := make([]*core.Instance, 16)
	for i := range insts {
		insts[i] = core.NewInstance([]float64{float64(i+1) / 20, 0.5}, []float64{0.25})
	}
	ctx := context.Background()
	eng.SolveEach(ctx, "", "", insts, 8) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outcomes := eng.SolveEach(ctx, "", "", insts, 8)
		for _, out := range outcomes {
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	}
}
