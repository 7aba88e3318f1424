package solver_test

import (
	"context"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/harness"
	"crsharing/internal/solver"
)

// BenchmarkPortfolioPoolWarm races the default portfolio once over every
// instance of the corpus's resource-tight and adversarial-dup families, each
// race under a 250ms deadline: the fresh solves that warm a serving cache
// holding those families. One op is the whole pass.
func BenchmarkPortfolioPoolWarm(b *testing.B) {
	corpus := harness.BuildCorpus(1)
	var insts []*core.Instance
	for _, fam := range []string{harness.FamilyResourceTight, harness.FamilyAdversarialDup} {
		insts = append(insts, corpus.Family(fam).Instances...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range insts {
			ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
			_, _, err := solver.NewDefaultPortfolio().Solve(ctx, inst)
			cancel()
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
