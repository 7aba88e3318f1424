package solver

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"crsharing/internal/algo/bruteforce"
	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// FuzzPortfolioAgainstBruteforce generates tiny random instances and
// cross-checks the portfolio makespan against the independent brute-force
// optimum oracle. The portfolio contains an exact member (branch-and-bound),
// so on every instance the oracle accepts the two must agree exactly.
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

// FuzzEveryNameAgainstBruteforce solves tiny instances with every registered
// name and checks each answer through Evaluate. The portfolio fuzz above
// sees only the race's winner, so a member that errs or answers badly is
// masked there. Requirements span [0, 1], 0 and values below numeric.Eps
// included; processor i gets 1 + (jobBits>>i)&1 jobs.
func FuzzEveryNameAgainstBruteforce(f *testing.F) {
	f.Add(uint8(0), uint8(0b01), 0.5, 0.0, 0.5, 0.0, 0.0, 0.0)
	f.Add(uint8(0), uint8(0b11), 0.5, 5e-10, 0.5714285708571429, 0.05, 0.0, 0.0)
	f.Add(uint8(0), uint8(0b11), 0.375, 1e-9, 0.24999999100000103, 1.0, 0.0, 0.0)
	f.Add(uint8(1), uint8(0b101), 0.3, 0.0, 0.7, 0.2, 1.0, 4e-10)
	f.Add(uint8(1), uint8(0b111), 1.0, 1.0, 0.25, 0.75, 0.5, 0.5)

	reg := Default()
	names := reg.Names()
	f.Fuzz(func(t *testing.T, mRaw, jobBits uint8, a1, a2, b1, b2, c1, c2 float64) {
		m := 2 + int(mRaw)%2
		reqs := [][2]float64{{a1, a2}, {b1, b2}, {c1, c2}}
		rows := make([][]float64, m)
		for i := range rows {
			rows[i] = reqs[i][:1+int(jobBits>>i)&1]
			for _, v := range rows[i] {
				if math.IsNaN(v) || v < 0 || v > 1 {
					t.Skip()
				}
			}
		}
		inst := core.NewInstance(rows...)
		want, err := bruteforce.Makespan(inst)
		if err != nil {
			t.Skip() // oracle rejects the instance
		}
		for _, name := range names {
			s, err := reg.New(name)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := Evaluate(context.Background(), s, inst)
			if err != nil {
				if m != 2 && name == "opt-res-assignment" {
					continue // the m=2 dynamic program's domain
				}
				t.Fatalf("%s: %v\n%v", name, err, inst)
			}
			if ev.Makespan < want {
				t.Fatalf("%s: makespan %d below the oracle's optimum %d\n%v", name, ev.Makespan, want, inst)
			}
			if isExact(s) && ev.Makespan != want {
				t.Fatalf("%s is exact but answers %d, oracle %d\n%v", name, ev.Makespan, want, inst)
			}
		}
	})
}
