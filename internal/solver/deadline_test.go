package solver

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// wideInstances draws n instances the way the serving benchmark's wide
// fresh-solve class does: 8-12 processors, uneven job counts or four jobs
// each.
func wideInstances(seed int64, n int) []*core.Instance {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*core.Instance, n)
	for i := range out {
		m := 8 + rng.Intn(5)
		if rng.Intn(2) == 0 {
			out[i] = gen.RandomUneven(rng, m, 2, 6, 0.05, 0.9)
		} else {
			out[i] = gen.Random(rng, m, 4, 0.1, 0.8)
		}
	}
	return out
}

// TestEverySolverHonoursDeadline runs every registered solver on wide
// instances under a 100ms deadline. Each solve must come back within a
// second — slack for the race detector on a small runner, far below the
// seconds one unpolled configuration-enumeration round takes at m=10-12 —
// with either a valid schedule or its context error.
func TestEverySolverHonoursDeadline(t *testing.T) {
	const (
		deadline = 100 * time.Millisecond
		limit    = time.Second
	)
	insts := wideInstances(11, 6)
	reg := Default()
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			for i, inst := range insts {
				s, err := reg.New(name)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				start := time.Now()
				sched, _, err := s.Solve(ctx, inst)
				elapsed, expired := time.Since(start), ctx.Err() != nil
				cancel()
				if elapsed > limit {
					t.Errorf("instance %d (m=%d): returned after %v, deadline %v", i, inst.NumProcessors(), elapsed, deadline)
				}
				if err != nil {
					// Rejecting the instance outright (the m=2 dynamic
					// program) is a valid answer too; a solver that ran
					// must have stopped on its context.
					if expired && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("instance %d: error %v after the deadline, want the context error", i, err)
					}
					continue
				}
				res, err := core.Execute(inst, sched)
				if err != nil || !res.Finished() {
					t.Errorf("instance %d: invalid schedule (%v)", i, err)
				}
			}
		})
	}
}
