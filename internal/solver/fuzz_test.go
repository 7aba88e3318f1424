package solver

import (
	"context"
	"math/rand"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// FuzzPortfolioAgainstBruteforce generates tiny random instances and
// cross-checks the portfolio makespan against the independent brute-force
// optimum oracle. The portfolio contains exact members, so on every instance
// the oracle accepts the two must agree exactly.
func FuzzPortfolioAgainstBruteforce(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2))
	f.Add(int64(20140623), uint8(3), uint8(3))
	f.Add(int64(42), uint8(4), uint8(2))
	f.Add(int64(-7), uint8(2), uint8(4))

	f.Fuzz(func(t *testing.T, seed int64, mRaw, jobsRaw uint8) {
		// Keep the brute-force oracle in the milliseconds: at most 3x3 jobs.
		m := 2 + int(mRaw)%2       // 2..3 processors
		jobs := 1 + int(jobsRaw)%3 // 1..3 jobs per processor
		rng := rand.New(rand.NewSource(seed))
		inst := gen.Random(rng, m, jobs, 0.05, 1.0)

		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Skip() // oracle rejects the instance
		}

		sched, stats, err := NewDefaultPortfolio().Solve(context.Background(), inst)
		if err != nil {
			t.Fatalf("portfolio: %v\n%v", err, inst)
		}
		res, err := core.Execute(inst, sched)
		if err != nil {
			t.Fatalf("portfolio schedule invalid: %v\n%v", err, inst)
		}
		if !res.Finished() {
			t.Fatalf("portfolio schedule incomplete\n%v", inst)
		}
		if res.Wasted() < 0 || res.Makespan() < core.LowerBounds(inst).Best() {
			t.Fatalf("portfolio schedule breaks the settle invariants: waste %g, makespan %d, lower bound %d\n%v",
				res.Wasted(), res.Makespan(), core.LowerBounds(inst).Best(), inst)
		}
		if got := res.Makespan(); got != want {
			t.Fatalf("portfolio (winner %s) makespan %d, bruteforce optimum %d\n%v",
				stats.Winner, got, want, inst)
		}
	})
}
