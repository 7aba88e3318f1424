package moves

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// refSuccessors stores the reference enumeration's successors the way Buf
// stored them before moves became descriptors: three flat row-major arrays,
// successor i in [i*m, (i+1)*m) of each, plus the move counts and order.
type refSuccessors struct {
	n, m  int
	done  []int
	rem   []float64
	alloc []float64
	cnt   []int
	ord   []int
}

func (b *refSuccessors) add() int {
	idx := b.n
	b.done = append(b.done, make([]int, b.m)...)
	b.rem = append(b.rem, make([]float64, b.m)...)
	b.alloc = append(b.alloc, make([]float64, b.m)...)
	b.cnt = append(b.cnt, 0)
	b.n++
	return idx
}

func (b *refSuccessors) DoneRow(i int) []int      { return b.done[i*b.m : (i+1)*b.m] }
func (b *refSuccessors) RemRow(i int) []float64   { return b.rem[i*b.m : (i+1)*b.m] }
func (b *refSuccessors) AllocRow(i int) []float64 { return b.alloc[i*b.m : (i+1)*b.m] }

// referenceExpand is the original successor enumeration, kept verbatim as
// the oracle for Expand and Derive: every successor's rows are derived
// eagerly, every subset sum is re-added bit by bit in ascending bit order,
// and the moves are ordered by a stable insertion sort.
func referenceExpand(inst *core.Instance, done []int, rem []float64) *refSuccessors {
	m := inst.NumProcessors()
	buf := &refSuccessors{m: m}
	var active []int
	base := 0
	var total float64
	for i := 0; i < m; i++ {
		base += done[i]
		if done[i] < inst.NumJobs(i) {
			active = append(active, i)
			total += rem[i]
		}
	}
	k := len(active)

	derive := func(finishMask int, partial int, amount float64) {
		idx := buf.add()
		d, r, a := buf.DoneRow(idx), buf.RemRow(idx), buf.AllocRow(idx)
		copy(d, done)
		copy(r, rem)
		cnt := base
		for bit := 0; bit < k; bit++ {
			if finishMask&(1<<bit) != 0 {
				i := active[bit]
				a[i] = rem[i]
				d[i]++
				r[i] = Work(inst, i, d[i])
				cnt++
			}
		}
		if partial >= 0 {
			a[partial] = amount
			r[partial] -= amount
			if r[partial] < 0 {
				r[partial] = 0
			}
		}
		buf.cnt[idx] = cnt
	}

	if numeric.Leq(total, 1) {
		derive(1<<k-1, -1, 0)
	} else {
		for mask := 1; mask < 1<<k; mask++ {
			var sum float64
			for bit := 0; bit < k; bit++ {
				if mask&(1<<bit) != 0 {
					sum += rem[active[bit]]
				}
			}
			if numeric.Greater(sum, 1) {
				continue
			}
			leftover := 1 - sum
			if numeric.Leq(leftover, 0) {
				derive(mask, -1, 0)
				continue
			}
			for bit := 0; bit < k; bit++ {
				p := active[bit]
				if mask&(1<<bit) != 0 || !numeric.Greater(rem[p], leftover) {
					continue
				}
				derive(mask, p, leftover)
			}
		}
	}
	buf.ord = referenceOrder(buf.cnt[:buf.n])
	return buf
}

// referenceOrder is the original move order: a stable insertion sort of the
// indices by cnt descending.
func referenceOrder(cnt []int) []int {
	ord := make([]int, len(cnt))
	for i := range ord {
		ord[i] = i
	}
	for a := 1; a < len(ord); a++ {
		for x := a; x > 0 && cnt[ord[x]] > cnt[ord[x-1]]; x-- {
			ord[x], ord[x-1] = ord[x-1], ord[x]
		}
	}
	return ord
}

// expandMatchesReference expands (done, rem) with Expand on sc and with the
// reference, and fails unless both yield the same successors in the same
// order, with Derive writing rows bit-identical to the reference's. It then
// overwrites the caller's state and the derived rows with junk and derives
// every successor again, in reverse order and then in a shuffled order:
// each derivation must still give the reference rows.
func expandMatchesReference(t testing.TB, inst *core.Instance, sc *Scratch, buf *Buf, done []int, rem []float64) {
	t.Helper()
	want := referenceExpand(inst, done, rem)
	// Expand sees copies, so the junk written below cannot reach the
	// reference or the caller.
	state := append([]int(nil), done...)
	stateRem := append([]float64(nil), rem...)
	var allocs int64
	Expand(inst, sc, state, stateRem, buf, &allocs)
	if buf.Len() != want.n {
		t.Fatalf("state done=%v rem=%v: %d successors, reference %d", done, rem, buf.Len(), want.n)
	}
	for o, i := range buf.Order() {
		if i != want.ord[o] {
			t.Fatalf("state done=%v rem=%v: ord %v, reference %v", done, rem, buf.Order(), want.ord)
		}
	}
	for i := 0; i < buf.Len(); i++ {
		if buf.cnt[i] != want.cnt[i] {
			t.Fatalf("successor %d: cnt %d, reference %d", i, buf.cnt[i], want.cnt[i])
		}
	}

	m := inst.NumProcessors()
	gd, gr, ga := make([]int, m), make([]float64, m), make([]float64, m)
	check := func(pass string, i int) {
		t.Helper()
		buf.Derive(inst, i, gd, gr, ga)
		wd, wr, wa := want.DoneRow(i), want.RemRow(i), want.AllocRow(i)
		for p := range gd {
			if gd[p] != wd[p] ||
				math.Float64bits(gr[p]) != math.Float64bits(wr[p]) ||
				math.Float64bits(ga[p]) != math.Float64bits(wa[p]) {
				t.Fatalf("%s: state done=%v rem=%v successor %d proc %d: (done %d, rem %x, alloc %x), reference (%d, %x, %x)",
					pass, done, rem, i, p, gd[p], math.Float64bits(gr[p]), math.Float64bits(ga[p]),
					wd[p], math.Float64bits(wr[p]), math.Float64bits(wa[p]))
			}
		}
		// Junk in every cell, so the next derivation must write all of them.
		for p := range gd {
			gd[p], gr[p], ga[p] = -7, math.NaN(), math.Inf(1)
		}
	}
	for i := 0; i < buf.Len(); i++ {
		check("in order", i)
	}
	for p := range state {
		state[p], stateRem[p] = -3, math.NaN()
	}
	for i := buf.Len() - 1; i >= 0; i-- {
		check("reversed after the state was overwritten", i)
	}
	rng := rand.New(rand.NewSource(int64(buf.Len())))
	for _, i := range rng.Perm(buf.Len()) {
		check("shuffled", i)
	}
}

// checkSubtree compares Expand with the reference at (done, rem) and, up
// to depth more levels below it, at the first, the last and one random
// successor of every expanded state. Each successor is derived into fresh
// rows before descending, because the deeper expansions reuse the scratch.
func checkSubtree(t testing.TB, rng *rand.Rand, inst *core.Instance, sc *Scratch, done []int, rem []float64, depth int) int {
	t.Helper()
	buf := new(Buf)
	expandMatchesReference(t, inst, sc, buf, done, rem)
	states := 1
	if depth == 0 || buf.Len() == 0 {
		return states
	}
	ord := buf.Order()
	picks := []int{ord[0], ord[len(ord)-1], ord[rng.Intn(len(ord))]}
	m := inst.NumProcessors()
	for _, i := range picks {
		d, r := make([]int, m), make([]float64, m)
		buf.Derive(inst, i, d, r, make([]float64, m))
		states += checkSubtree(t, rng, inst, sc, d, r, depth-1)
	}
	return states
}

// TestExpandIntoMatchesReference pins the incremental subset sums and the
// counting-sort move order to the original enumeration: on random, uneven,
// Partition-gadget and epsilon-boundary instances, at the root and up to
// three levels below it, Expand must produce the same successors in the
// same order, and Derive must write bit-identical rows however often and in
// whatever order it is called.
func TestExpandIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260101))
	insts := corpus(t, rng)

	// One scratch for every instance, so stale active lists and sum tables
	// from a previous, wider instance are exercised too.
	sc := new(Scratch)
	states := 0
	for _, inst := range insts {
		done, rem := rootState(inst)
		states += checkSubtree(t, rng, inst, sc, done, rem, 3)
	}
	t.Logf("%d instances, %d states compared", len(insts), states)
}

// TestOrderMatchesStableInsertionSort checks the counting sort against the
// original stable insertion sort on edge shapes and random count slices. A
// node's counts span at most MaxProcessors+1 values (base..base+k), so the
// widest case uses exactly that span.
func TestOrderMatchesStableInsertionSort(t *testing.T) {
	const w = MaxProcessors
	cases := map[string][]int{
		"empty":      {},
		"single":     {7},
		"all-equal":  {3, 3, 3, 3, 3},
		"increasing": {0, 1, 2, 3, 4, 5, 6, 7},
		"decreasing": {9, 8, 7, 6, 5},
		"wide-range": {1000 + w, 1000, 1000 + w/2, 1000, 1000 + w, 1003, 1000 + w - 1, 1001},
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		base, span := rng.Intn(100), 1+rng.Intn(12)
		if trial%10 == 0 {
			span = w + 1
		}
		cnt := make([]int, n)
		for i := range cnt {
			cnt[i] = base + rng.Intn(span)
		}
		cases[fmt.Sprintf("random-%d", trial)] = cnt
	}

	// One buffer for every case, so stale bucket and ord contents from a
	// previous sort are exercised too.
	var b Buf
	for name, cnt := range cases {
		b.cnt = append(b.cnt[:0], cnt...)
		var allocs int64
		b.order(&allocs)
		want := referenceOrder(cnt)
		if len(b.ord) != len(want) {
			t.Fatalf("%s: ord has %d entries, want %d", name, len(b.ord), len(want))
		}
		for i := range want {
			if b.ord[i] != want[i] {
				t.Fatalf("%s: cnt %v: ord %v, want %v", name, cnt, b.ord, want)
			}
		}
	}
}

// FuzzExpandInto compares Expand and Derive with the reference enumeration
// on up to eight fuzzed remaining-work values in (0, 1]. finished marks
// processors whose jobs are all done, so the active list skips them. The
// seeds sit within numeric.Eps of the boundaries where a subset's sum, or a
// leftover share, flips between two tolerance classes.
func FuzzExpandInto(f *testing.F) {
	const e = numeric.Eps
	f.Add(uint8(2), uint8(0), 0.5, 0.5+e/2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(3), uint8(0), 0.4, 0.6+e, 0.6+2*e, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(3), uint8(0), 1.0/3, 1.0/3, 1.0/3+e, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(4), uint8(2), 0.25-e/2, 0.25, 0.75+e/2, 0.5, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(5), uint8(0), 0.1, 0.2, 0.3, 0.4, 0.7-e, 0.0, 0.0, 0.0)
	f.Add(uint8(8), uint8(0), 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
	f.Add(uint8(8), uint8(0x81), 1.0, 1e-9, 0.999999999, 0.5, 0.5-e, 0.5+e, 0.25, 0.125)
	f.Add(uint8(6), uint8(0), 0.3, 0.3, 0.4, 0.4+e, 0.6-e, 0.7, 0.0, 0.0)

	f.Fuzz(func(t *testing.T, kRaw, finished uint8, a, b, c, d, e, g, h, i float64) {
		k := int(kRaw)
		if k < 1 || k > 8 {
			t.Skip()
		}
		vals := []float64{a, b, c, d, e, g, h, i}[:k]
		rows := make([][]float64, k)
		for p, v := range vals {
			if math.IsNaN(v) || v <= 0 || v > 1 {
				t.Skip()
			}
			// A second job gives every finished processor a next job to
			// derive its remaining work from.
			rows[p] = []float64{v, vals[(p+1)%k]}
		}
		inst := core.NewInstance(rows...)
		done := make([]int, k)
		rem := make([]float64, k)
		for p := range done {
			if finished&(1<<p) != 0 {
				done[p] = inst.NumJobs(p)
			} else {
				rem[p] = vals[p]
			}
		}
		expandMatchesReference(t, inst, new(Scratch), new(Buf), done, rem)
	})
}
