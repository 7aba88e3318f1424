package moves

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// referenceExpand is the original successor enumeration, kept verbatim as
// the oracle for Expand: every subset sum is re-added bit by bit in
// ascending bit order, and the moves are ordered by a stable insertion sort.
func referenceExpand(inst *core.Instance, done []int, rem []float64) *Buf {
	var allocs int64
	buf := new(Buf)
	m := inst.NumProcessors()
	buf.reset(m)
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
		idx := buf.add(&allocs)
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
// order with bit-identical rows.
func expandMatchesReference(t testing.TB, inst *core.Instance, sc *Scratch, buf *Buf, done []int, rem []float64) {
	t.Helper()
	var allocs int64
	Expand(inst, sc, done, rem, buf, &allocs)
	want := referenceExpand(inst, done, rem)
	if buf.n != want.n {
		t.Fatalf("state done=%v rem=%v: %d successors, reference %d", done, rem, buf.n, want.n)
	}
	for o := 0; o < buf.n; o++ {
		if buf.ord[o] != want.ord[o] {
			t.Fatalf("state done=%v rem=%v: ord %v, reference %v", done, rem, buf.ord[:buf.n], want.ord)
		}
	}
	for i := 0; i < buf.n; i++ {
		if buf.cnt[i] != want.cnt[i] {
			t.Fatalf("successor %d: cnt %d, reference %d", i, buf.cnt[i], want.cnt[i])
		}
		gd, wd := buf.DoneRow(i), want.DoneRow(i)
		gr, wr := buf.RemRow(i), want.RemRow(i)
		ga, wa := buf.AllocRow(i), want.AllocRow(i)
		for p := range gd {
			if gd[p] != wd[p] ||
				math.Float64bits(gr[p]) != math.Float64bits(wr[p]) ||
				math.Float64bits(ga[p]) != math.Float64bits(wa[p]) {
				t.Fatalf("state done=%v rem=%v successor %d proc %d: (done %d, rem %x, alloc %x), reference (%d, %x, %x)",
					done, rem, i, p, gd[p], math.Float64bits(gr[p]), math.Float64bits(ga[p]),
					wd[p], math.Float64bits(wr[p]), math.Float64bits(wa[p]))
			}
		}
	}
}

// checkSubtree compares Expand with the reference at (done, rem) and, up
// to depth more levels below it, at the first, the last and one random
// successor of every expanded state. The successor rows are copied before
// descending, because the deeper expansions reuse the scratch.
func checkSubtree(t testing.TB, rng *rand.Rand, inst *core.Instance, sc *Scratch, done []int, rem []float64, depth int) int {
	t.Helper()
	buf := new(Buf)
	expandMatchesReference(t, inst, sc, buf, done, rem)
	states := 1
	if depth == 0 || buf.n == 0 {
		return states
	}
	picks := []int{buf.ord[0], buf.ord[buf.n-1], buf.ord[rng.Intn(buf.n)]}
	for _, i := range picks {
		d := append([]int(nil), buf.DoneRow(i)...)
		r := append([]float64(nil), buf.RemRow(i)...)
		states += checkSubtree(t, rng, inst, sc, d, r, depth-1)
	}
	return states
}

// TestExpandIntoMatchesReference pins the incremental subset sums and the
// counting-sort move order to the original enumeration: on random, uneven,
// Partition-gadget and epsilon-boundary instances, at the root and up to
// three levels below it, Expand must produce the same successors in the
// same order, with bit-identical rows.
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
		b.n = len(cnt)
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

// FuzzExpandInto compares Expand with the reference enumeration on up to
// eight fuzzed remaining-work values in (0, 1]. finished marks processors
// whose jobs are all done, so the active list skips them. The seeds sit
// within numeric.Eps of the boundaries where a subset's sum, or a leftover
// share, flips between two tolerance classes.
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
