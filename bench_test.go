package crsharing

// The benchmark harness: one benchmark per figure and per empirical
// validation of the paper (the experiment index is `crexp -h`), plus
// micro-benchmarks for the individual algorithms. Run with
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks execute the same runners as cmd/crexp in quick
// mode, so `-bench` regenerates every crexp table in miniature;
// the micro-benchmarks isolate the algorithmic kernels (the m=2 dynamic
// program, the configuration enumeration, the greedy schedulers, the
// hypergraph construction and the many-core simulator engine).

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"crsharing/internal/algo/branchbound"
	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/algo/chunked"
	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/optres2"
	"crsharing/internal/algo/optresm"
	"crsharing/internal/algo/roundrobin"
	"crsharing/internal/core"
	"crsharing/internal/experiments"
	"crsharing/internal/gen"
	"crsharing/internal/hypergraph"
	"crsharing/internal/manycore"
	"crsharing/internal/solver"
	"crsharing/internal/trace"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.QuickConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper figure -----------------------------------------

func BenchmarkFig1Hypergraph(b *testing.B)          { benchExperiment(b, "F1") }
func BenchmarkFig2NestedTransform(b *testing.B)     { benchExperiment(b, "F2") }
func BenchmarkFig3RoundRobinWorstCase(b *testing.B) { benchExperiment(b, "F3") }
func BenchmarkFig4PartitionReduction(b *testing.B)  { benchExperiment(b, "F4") }
func BenchmarkFig5GreedyWorstCase(b *testing.B)     { benchExperiment(b, "F5") }

// --- one benchmark per empirical validation ---------------------------------

func BenchmarkE1LowerBounds(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2RoundRobinRatio(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3DP2Scaling(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4ExactM(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE5GreedyRatio(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6HypergraphBounds(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7ManycorePolicies(b *testing.B) { benchExperiment(b, "E7") }
func BenchmarkE8GeneralSizes(b *testing.B)     { benchExperiment(b, "E8") }

// --- extension / ablation experiments (not in the paper) ----------------------

func BenchmarkE9BalanceAblation(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Canonicalisation(b *testing.B)  { benchExperiment(b, "E10") }
func BenchmarkE11LookaheadWindows(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12SubstrateScaling(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13PlacementPolicies(b *testing.B) { benchExperiment(b, "E13") }

// --- algorithm micro-benchmarks ----------------------------------------------

func BenchmarkGreedyBalance(b *testing.B) {
	for _, size := range []struct{ m, jobs int }{{2, 64}, {4, 64}, {8, 64}, {16, 256}} {
		b.Run(fmt.Sprintf("m=%d/n=%d", size.m, size.jobs), func(b *testing.B) {
			inst := gen.Random(rand.New(rand.NewSource(1)), size.m, size.jobs, 0.05, 1.0)
			s := greedybalance.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(context.Background(), inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRoundRobin(b *testing.B) {
	for _, size := range []struct{ m, jobs int }{{2, 64}, {8, 64}, {16, 256}} {
		b.Run(fmt.Sprintf("m=%d/n=%d", size.m, size.jobs), func(b *testing.B) {
			inst := gen.Random(rand.New(rand.NewSource(2)), size.m, size.jobs, 0.05, 1.0)
			s := roundrobin.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(context.Background(), inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptResAssignmentDense(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := gen.Random(rand.New(rand.NewSource(3)), 2, n, 0.05, 1.0)
			s := optres2.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Makespan(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptResAssignmentPQ(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := gen.Random(rand.New(rand.NewSource(3)), 2, n, 0.05, 1.0)
			s := optres2.NewPQ()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Makespan(inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptResAssignment2(b *testing.B) {
	for _, size := range []struct{ m, jobs int }{{2, 8}, {3, 4}, {4, 3}} {
		b.Run(fmt.Sprintf("m=%d/n=%d", size.m, size.jobs), func(b *testing.B) {
			inst := gen.Random(rand.New(rand.NewSource(4)), size.m, size.jobs, 0.05, 1.0)
			s := optresm.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(context.Background(), inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBranchAndBound(b *testing.B) {
	for _, size := range []struct{ m, jobs int }{{2, 10}, {3, 5}} {
		b.Run(fmt.Sprintf("m=%d/n=%d", size.m, size.jobs), func(b *testing.B) {
			inst := gen.Random(rand.New(rand.NewSource(12)), size.m, size.jobs, 0.05, 1.0)
			s := branchbound.New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(context.Background(), inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChunkedWindows(b *testing.B) {
	inst := gen.Random(rand.New(rand.NewSource(13)), 3, 9, 0.05, 1.0)
	for _, w := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			s := chunked.New(w)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(context.Background(), inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBruteForceOracle(b *testing.B) {
	inst := gen.Random(rand.New(rand.NewSource(5)), 3, 3, 0.05, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bruteforce.Makespan(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteSchedule(b *testing.B) {
	inst := gen.Random(rand.New(rand.NewSource(6)), 8, 128, 0.05, 1.0)
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Execute(inst, sched); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonicalize(b *testing.B) {
	inst := gen.Random(rand.New(rand.NewSource(7)), 6, 32, 0.05, 1.0)
	sched, err := roundrobin.New().Schedule(context.Background(), inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Canonicalize(inst, sched); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHypergraphBuild(b *testing.B) {
	inst := gen.Random(rand.New(rand.NewSource(8)), 8, 64, 0.05, 1.0)
	sched, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Execute(inst, sched)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hypergraph.Build(res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManycoreEngine(b *testing.B) {
	for _, cores := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			tasks, err := trace.Scientific(rng, trace.DefaultScientificConfig(cores))
			if err != nil {
				b.Fatal(err)
			}
			w := manycore.NewWorkload(cores)
			w.AssignRoundRobin(tasks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := manycore.Run(w, manycore.GreedyBalance{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartitionGadgetSolve(b *testing.B) {
	inst, err := gen.PartitionGadget([]int64{3, 1, 2, 2}, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	s := optresm.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(context.Background(), inst); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks (design choices of the kernels) ---------------------

// BenchmarkAblationTieBreaks compares the makespans produced by the balanced
// greedy under its different tie-breaking rules (the paper's rule prefers the
// larger remaining requirement).
func BenchmarkAblationTieBreaks(b *testing.B) {
	inst := gen.RandomBimodal(rand.New(rand.NewSource(10)), 8, 64, 0.4)
	variants := []*greedybalance.Scheduler{
		greedybalance.New(),
		greedybalance.NewWithTie(greedybalance.SmallerRemaining),
		greedybalance.NewWithTie(greedybalance.ProcessorIndex),
		greedybalance.NewUnbalanced(greedybalance.LargerRemaining),
	}
	for _, v := range variants {
		b.Run(v.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched, err := v.Schedule(context.Background(), inst)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(core.MustMakespan(inst, sched)), "makespan")
				}
			}
		})
	}
}

// BenchmarkAblationDenseVsPQ reports the speedup of the priority-queue DP
// variant over the dense table on an instance where most index pairs are
// unreachable (all requirement pairs fit into one step).
func BenchmarkAblationDenseVsPQ(b *testing.B) {
	inst := gen.Random(rand.New(rand.NewSource(11)), 2, 512, 0.05, 0.45)
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := optres2.New().Makespan(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := optres2.NewPQ().Makespan(inst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- solver subsystem benchmarks ---------------------------------------------

// BenchmarkPortfolio races the default portfolio on a mid-size instance; the
// sub-benchmark shards a stream of solves across goroutines with
// b.SetParallelism, exercising the portfolio under concurrent callers as the
// experiment harness does.
func BenchmarkPortfolio(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	inst := gen.Random(rng, 3, 6, 0.05, 1.0)
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := solver.NewDefaultPortfolio().Solve(context.Background(), inst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-callers", func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(4)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := solver.NewDefaultPortfolio().Solve(context.Background(), inst); err != nil {
					b.Errorf("portfolio: %v", err)
					return
				}
			}
		})
	})
}

// BenchmarkCacheEvaluate measures the serving hot path: the first iteration
// pays for one real solve, every further iteration is a fingerprint plus a
// sharded-LRU hit, which is what a production cache mostly does.
func BenchmarkCacheEvaluate(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	inst := gen.Random(rng, 4, 16, 0.05, 1.0)
	cache := solver.NewCache(16, 1024)
	s := solver.Adapt(greedybalance.New())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cache.Evaluate(context.Background(), s, inst); err != nil {
			b.Fatal(err)
		}
	}
}
