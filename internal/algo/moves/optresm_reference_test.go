package moves

import (
	"math"
	"math/rand"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// config is OptResAssignment2's configuration (package optresm) without the
// parent link, which the enumeration below does not read.
type config struct {
	done  []int
	rem   []float64
	alloc []float64
}

// successors is OptResAssignment2's original enumeration, kept verbatim
// (with derive, contains and work) as the reference Expand is checked
// against now that optresm expands through this package.
func successors(inst *core.Instance, c *config) []*config {
	m := inst.NumProcessors()
	var active []int
	var totalDemand numeric.KahanAdder
	for i := 0; i < m; i++ {
		if c.done[i] < inst.NumJobs(i) {
			active = append(active, i)
			totalDemand.Add(c.rem[i])
		}
	}
	if len(active) == 0 {
		return nil
	}

	// Case 1: everything fits — the unique non-wasting choice finishes every
	// active job.
	if numeric.Leq(totalDemand.Sum(), 1) {
		nc := derive(inst, c, active, -1, 0)
		return []*config{nc}
	}

	// Case 2: enumerate subsets F of active processors whose jobs finish this
	// step, plus at most one processor receiving the leftover.
	var out []*config
	k := len(active)
	for mask := 0; mask < 1<<k; mask++ {
		var sum numeric.KahanAdder
		var finish []int
		for bit := 0; bit < k; bit++ {
			if mask&(1<<bit) != 0 {
				finish = append(finish, active[bit])
				sum.Add(c.rem[active[bit]])
			}
		}
		if numeric.Greater(sum.Sum(), 1) {
			continue
		}
		leftover := 1 - sum.Sum()
		if leftover <= numeric.Eps {
			if len(finish) > 0 {
				out = append(out, derive(inst, c, finish, -1, 0))
			}
			continue
		}
		// The leftover must go to exactly one unfinished active job whose
		// remaining demand strictly exceeds it (otherwise that job belongs in
		// F and the same successor arises from a different mask).
		for _, p := range active {
			if contains(finish, p) {
				continue
			}
			if numeric.Greater(c.rem[p], leftover) {
				out = append(out, derive(inst, c, finish, p, leftover))
			}
		}
	}
	return out
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// derive builds the successor configuration in which the processors in
// `finish` complete their active jobs, and processor `partial` (if >= 0)
// receives `amount` of resource without finishing. It also records the
// allocation row of the step.
func derive(inst *core.Instance, c *config, finish []int, partial int, amount float64) *config {
	m := inst.NumProcessors()
	nc := &config{
		done:  append([]int(nil), c.done...),
		rem:   append([]float64(nil), c.rem...),
		alloc: make([]float64, m),
	}
	for _, i := range finish {
		nc.alloc[i] = c.rem[i]
		nc.done[i]++
		nc.rem[i] = work(inst, i, nc.done[i])
	}
	if partial >= 0 {
		nc.alloc[partial] = amount
		nc.rem[partial] -= amount
		if nc.rem[partial] < 0 {
			nc.rem[partial] = 0
		}
	}
	return nc
}

func work(inst *core.Instance, p, done int) float64 {
	if done >= inst.NumJobs(p) {
		return 0
	}
	return inst.Job(p, done).Work()
}

// kahanSlack bounds how far a remaining-work or allocation cell of the
// shared enumerator may drift from the reference: the reference sums each
// subset with Kahan compensation, the enumerator with plain additions, so
// the two leftovers can differ in their last bits.
const kahanSlack = 1e-15

// TestExpandMatchesOriginalSuccessors pins OptResAssignment2's switch to
// Expand: on the corpus of TestExpandIntoMatchesReference, at the root and up
// to three levels below it (first, last and one random successor of every
// expanded configuration), Expand must yield the successors of optresm's
// original enumeration in enumeration order — the order optresm walks them
// in — and Derive must write equal done rows, and remaining work and
// allocations equal up to kahanSlack.
func TestExpandMatchesOriginalSuccessors(t *testing.T) {
	// The seed of TestExpandIntoMatchesReference, so the corpus is the same.
	rng := rand.New(rand.NewSource(20260101))
	var (
		sc   Scratch
		buf  Buf
		rows int
	)
	var check func(inst *core.Instance, c *config, depth int)
	check = func(inst *core.Instance, c *config, depth int) {
		want := successors(inst, c)
		var allocs int64
		Expand(inst, &sc, c.done, c.rem, &buf, &allocs)
		if buf.Len() != len(want) {
			t.Fatalf("state done=%v rem=%v: %d successors, reference %d", c.done, c.rem, buf.Len(), len(want))
		}
		m := inst.NumProcessors()
		gd, gr, ga := make([]int, m), make([]float64, m), make([]float64, m)
		for i, w := range want {
			buf.Derive(inst, i, gd, gr, ga)
			for p := range w.done {
				if gd[p] != w.done[p] ||
					math.Abs(gr[p]-w.rem[p]) > kahanSlack ||
					math.Abs(ga[p]-w.alloc[p]) > kahanSlack {
					t.Fatalf("state done=%v rem=%v successor %d: (done %v, rem %v, alloc %v), reference (%v, %v, %v)",
						c.done, c.rem, i, gd, gr, ga, w.done, w.rem, w.alloc)
				}
			}
		}
		rows += len(want)
		if depth == 0 {
			return
		}
		for _, i := range []int{0, len(want) - 1, rng.Intn(len(want))} {
			if !isFinal(inst, want[i]) {
				check(inst, want[i], depth-1)
			}
		}
	}

	insts := corpus(t, rng)
	for _, inst := range insts {
		done, rem := rootState(inst)
		if !isFinal(inst, &config{done: done}) {
			check(inst, &config{done: done, rem: rem}, 3)
		}
	}
	t.Logf("%d instances, %d successor rows compared", len(insts), rows)
}

func isFinal(inst *core.Instance, c *config) bool {
	for i := range c.done {
		if c.done[i] < inst.NumJobs(i) {
			return false
		}
	}
	return true
}
