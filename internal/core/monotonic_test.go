package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestExecuteMonotoneInResource checks a basic sanity property of the
// progress law: granting a processor at least as much resource in every step
// never delays any of its jobs' completions. Along the way it checks that
// every executed schedule has non-negative waste and that every finishing
// one respects the makespan lower bound.
func TestExecuteMonotoneInResource(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(3)
		inst := randomInstance(rng, m, 1+rng.Intn(4), 0.05, 1.0)

		// Base schedule: random shares, feasible.
		steps := 4 + rng.Intn(10)
		base := NewSchedule(steps, m)
		for tt := 0; tt < steps; tt++ {
			avail := 1.0
			for _, i := range rng.Perm(m) {
				give := rng.Float64() * avail * 0.7
				base.Alloc[tt][i] = give
				avail -= give
			}
		}
		// Boosted schedule: scale every share up toward the remaining
		// capacity of the step, never shrinking any share.
		boosted := base.Clone()
		for tt := 0; tt < steps; tt++ {
			total := boosted.StepTotal(tt)
			headroom := 1 - total
			if headroom <= 0 {
				continue
			}
			// Give the headroom to one processor on top of its base share.
			i := rng.Intn(m)
			boosted.Alloc[tt][i] += headroom * rng.Float64()
		}

		resBase, err := Execute(inst, base)
		if err != nil {
			return false
		}
		resBoost, err := Execute(inst, boosted)
		if err != nil {
			return false
		}
		// The invariants the portfolio's early settle rests on: waste is
		// never negative, and no finishing schedule beats the lower bound.
		for _, res := range []*Result{resBase, resBoost} {
			if res.Wasted() < 0 {
				return false
			}
			if res.Finished() && res.Makespan() < LowerBounds(inst).Best() {
				return false
			}
		}
		for i := 0; i < m; i++ {
			for j := 0; j < inst.NumJobs(i); j++ {
				cb := resBase.CompletionStep(i, j)
				cB := resBoost.CompletionStep(i, j)
				if cb < 0 {
					continue // not finished under the base schedule: nothing to compare
				}
				if cB < 0 || cB > cb {
					return false // more resource must not delay a completion
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatalf("monotonicity violated: %v", err)
	}
}

// TestExecutePrefixConsistency checks that truncating a schedule does not
// change what happened in the retained prefix.
func TestExecutePrefixConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(3)
		inst := randomInstance(rng, m, 1+rng.Intn(4), 0.05, 1.0)
		sched := balancedGreedySchedule(inst)
		if sched.Steps() < 2 {
			return true
		}
		cut := 1 + rng.Intn(sched.Steps()-1)
		prefix := &Schedule{Alloc: sched.Alloc[:cut]}

		full, err := Execute(inst, sched)
		if err != nil {
			return false
		}
		part, err := Execute(inst, prefix)
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < inst.NumJobs(i); j++ {
				cf := full.CompletionStep(i, j)
				cp := part.CompletionStep(i, j)
				if cf >= 0 && cf < cut && cp != cf {
					return false // a completion inside the prefix must be identical
				}
				if cp >= 0 && cp != cf {
					return false // the prefix cannot finish a job the full run finished later
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatalf("prefix consistency violated: %v", err)
	}
}

// TestCanonicalizeIdempotent checks that canonicalising twice gives the same
// makespan as canonicalising once (the canonical schedule is already
// non-wasting, progressive and nested, so the second pass has nothing to
// improve structurally).
func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(rng, 1+rng.Intn(4), 1+rng.Intn(4), 0.05, 1.0)
		orig := balancedGreedySchedule(inst)
		once, err := Canonicalize(inst, orig)
		if err != nil {
			t.Fatalf("Canonicalize: %v", err)
		}
		twice, err := Canonicalize(inst, once)
		if err != nil {
			t.Fatalf("Canonicalize (second pass): %v", err)
		}
		a, b := MustMakespan(inst, once), MustMakespan(inst, twice)
		if b > a {
			t.Fatalf("trial %d: second canonicalisation made the schedule worse: %d -> %d", trial, a, b)
		}
	}
}
