// Package moves enumerates the one-step moves of the CRSharing problem with
// unit size jobs for both exact kernels, the paper's OptResAssignment2
// (package optresm) and branch-and-bound (package branchbound). A move is
// non-wasting and progressive (Lemma 1): a subset of the active jobs
// finishes, and at most one further active job receives the leftover
// resource without finishing.
//
// A state is a pair (done, rem): per processor, the number of completed jobs
// and the remaining work of its active job. Expand records the moves from a
// state in a reusable Buf, one compact descriptor each, and Buf.Derive
// writes one successor's rows only when a kernel visits it. AppendKey packs
// a state into the byte key both kernels deduplicate states by. Buffers
// count their growth events in the caller's allocs counter; a warm
// expansion allocates nothing.
package moves

import (
	"math"
	"math/bits"

	"crsharing/internal/core"
	"crsharing/internal/numeric"
)

// MaxProcessors bounds the processor count the enumerator supports.
// Expanding a state scans every subset of its active processors through a
// table of 2^k subset sums, so a Scratch holds up to 2^m floats (8 MiB at
// the bound) and every expansion costs at least 2^k steps; beyond the bound
// the search is hopeless, and the kernels reject such instances up front.
const MaxProcessors = 20

// Work returns the work of processor p's job number done, or 0 once the
// processor has completed all its jobs. A job whose requirement is at most
// numeric.Eps has work 0: core.Execute runs it at full speed on no share,
// so a share given to it would be wasted.
func Work(inst *core.Instance, p, done int) float64 {
	if done >= inst.NumJobs(p) {
		return 0
	}
	j := inst.Job(p, done)
	if j.Req <= numeric.Eps {
		return 0
	}
	return j.Work()
}

// Scratch holds the temporaries of one expansion, reused across calls.
type Scratch struct {
	active []int     // the active-processor list
	sums   []float64 // the subset work sums, 2^k
}

// Expand enumerates the moves from the state (done, rem), which must have an
// active processor, into buf. Moves are stored in enumeration order: for
// each nonempty subset of the active processors in ascending bitmask order,
// the move finishing exactly that subset when it uses up the unit budget,
// else one move per processor outside it whose remaining work strictly
// exceeds the leftover, which takes the leftover as a partial share. When
// the whole active demand fits, the only move finishes every active job.
// buf.Order additionally lists them with moves finishing more jobs first,
// the order branch-and-bound searches in.
//
// Expand records each move as a descriptor and keeps its own copy of the
// state; Derive writes one successor's rows on demand. For k active
// processors this costs one O(2^k) scan over the finishing subsets plus
// O(k) per move: each subset's work sum is its predecessor's (the subset
// without its highest bit) plus one term, which adds the terms in ascending
// bit order exactly as a from-scratch sum does, so every tolerance decision
// sees the same float.
func Expand(inst *core.Instance, sc *Scratch, done []int, rem []float64, buf *Buf, allocs *int64) {
	m := inst.NumProcessors()
	buf.reset(done, rem, allocs)
	active := sc.active[:0]
	base := 0
	var total float64
	for i := 0; i < m; i++ {
		base += done[i]
		if done[i] < inst.NumJobs(i) {
			if cap(active) == len(active) {
				*allocs++
			}
			active = append(active, i)
			total += rem[i]
		}
	}
	sc.active = active
	k := len(active)

	// record stores the move finishing the active processors in finishMask
	// (bits index active) and giving amount to processor partial, if any.
	record := func(finishMask int, partial int, amount float64) {
		var finish uint32
		for f := finishMask; f != 0; f &= f - 1 {
			finish |= 1 << active[bits.TrailingZeros(uint(f))]
		}
		buf.add(move{amount: amount, finish: finish, partial: int32(partial)}, base+bits.OnesCount(uint(finishMask)), allocs)
	}

	if numeric.Leq(total, 1) {
		record(1<<k-1, -1, 0)
		buf.order(allocs)
		return
	}

	sums := ResizeFloats(sc.sums, 1<<k, allocs)
	sc.sums = sums
	sums[0] = 0
	full := 1<<k - 1
	for mask := 1; mask < 1<<k; mask++ {
		hb := bits.Len(uint(mask)) - 1
		sum := sums[mask&^(1<<hb)] + rem[active[hb]]
		sums[mask] = sum
		if numeric.Greater(sum, 1) {
			continue
		}
		leftover := 1 - sum
		if numeric.Leq(leftover, 0) {
			record(mask, -1, 0)
			continue
		}
		for c := full &^ mask; c != 0; c &= c - 1 {
			bit := bits.TrailingZeros(uint(c))
			if p := active[bit]; numeric.Greater(rem[p], leftover) {
				record(mask, p, leftover)
			}
		}
	}
	buf.order(allocs)
}

// move describes one successor of a Buf's state: the processors whose
// active job finishes, and the processor (or -1) that takes amount without
// finishing.
type move struct {
	amount  float64
	finish  uint32 // bit i: processor i finishes its active job
	partial int32
}

// Buf holds the moves of one expanded state as descriptors next to one copy
// of the state, so a move costs a descriptor and a count whatever the
// processor count, and an expansion allocates nothing once the buffer has
// grown to its largest state.
// Derive writes a successor's rows into the caller's; every successor stays
// derivable, in any order and any number of times, until the buffer's next
// Expand.
type Buf struct {
	done  []int     // the expanded state's completed-job counts
	rem   []float64 // and the remaining work of its active jobs
	moves []move    // in enumeration order
	cnt   []int     // total finished jobs after each move, for move ordering
	ord   []int     // iteration order: cnt descending, stable
}

// Len returns the number of successors stored.
func (b *Buf) Len() int { return len(b.moves) }

// Order returns the successor indices with moves that finish more jobs
// first, ties in enumeration order.
func (b *Buf) Order() []int { return b.ord[:len(b.moves)] }

// Derive writes successor i into done, rem and alloc, each of the
// instance's processor count in length: the completed-job counts and the
// remaining work of the state the move leads to, and the resource
// allocation of the step that makes it. It writes every cell and reads
// nothing the caller passes in.
func (b *Buf) Derive(inst *core.Instance, i int, done []int, rem, alloc []float64) {
	mv := b.moves[i]
	copy(done, b.done)
	copy(rem, b.rem)
	clear(alloc)
	for f := mv.finish; f != 0; f &= f - 1 {
		p := bits.TrailingZeros32(f)
		alloc[p] = b.rem[p]
		done[p]++
		rem[p] = Work(inst, p, done[p])
	}
	if p := mv.partial; p >= 0 {
		alloc[p] = mv.amount
		rem[p] -= mv.amount
		if rem[p] < 0 {
			rem[p] = 0
		}
	}
}

// reset empties the buffer and copies in the state about to be expanded.
func (b *Buf) reset(done []int, rem []float64, allocs *int64) {
	b.done = ResizeInts(b.done, len(done), allocs)
	b.rem = ResizeFloats(b.rem, len(rem), allocs)
	copy(b.done, done)
	copy(b.rem, rem)
	b.moves = b.moves[:0]
	b.cnt = b.cnt[:0]
}

// add appends one move and the finished-job count it leads to.
func (b *Buf) add(mv move, cnt int, allocs *int64) {
	if cap(b.moves) == len(b.moves) {
		*allocs++
	}
	b.moves = append(b.moves, mv)
	if cap(b.cnt) == len(b.cnt) {
		*allocs++
	}
	b.cnt = append(b.cnt, cnt)
}

// order rebuilds ord as the successors sorted by finished-job count
// descending, ties in insertion order — the exact ordering rule of the
// original []move implementation. A state's counts span at most k+1 values
// (base..base+k for k active processors), so a stable counting sort does it
// in O(successors + k).
func (b *Buf) order(allocs *int64) {
	n := len(b.cnt)
	b.ord = ResizeInts(b.ord, n, allocs)
	if n == 0 {
		return
	}
	lo, hi := b.cnt[0], b.cnt[0]
	for _, c := range b.cnt {
		lo, hi = min(lo, c), max(hi, c)
	}
	// buckets[hi-c] is first the number of successors with count c, then the
	// next free position for them in ord; higher counts come first. The span
	// is at most k+1 ≤ MaxProcessors+1, so the buckets live on the stack.
	var local [MaxProcessors + 1]int
	buckets := local[:hi-lo+1]
	for _, c := range b.cnt {
		buckets[hi-c]++
	}
	pos := 0
	for v, n := range buckets {
		buckets[v] = pos
		pos += n
	}
	for i, c := range b.cnt {
		b.ord[buckets[hi-c]] = i
		buckets[hi-c]++
	}
}

// AppendKey appends the packed key of the state (done, rem) to buf: one
// AppendPair per processor, in processor order. Two states share a key
// exactly when they agree on every done count and on every remaining work
// rounded by RoundRem.
func AppendKey(buf []byte, done []int, rem []float64) []byte {
	for i := range done {
		buf = AppendPair(buf, done[i], RoundRem(rem[i]))
	}
	return buf
}

// RoundRem quantises remaining work to 1e-9, collapsing floating-point dust.
func RoundRem(r float64) int64 { return int64(math.Round(r * 1e9)) }

// AppendPair appends one processor's (done, rounded remaining work) pair as
// 12 little-endian bytes.
func AppendPair(buf []byte, done int, rr int64) []byte {
	return append(buf,
		byte(done), byte(done>>8), byte(done>>16), byte(done>>24),
		byte(rr), byte(rr>>8), byte(rr>>16), byte(rr>>24),
		byte(rr>>32), byte(rr>>40), byte(rr>>48), byte(rr>>56))
}

// ResizeInts returns s with length n and unspecified contents, reallocating
// (and counting one event in allocs) only when its capacity is too small.
func ResizeInts(s []int, n int, allocs *int64) []int {
	if cap(s) < n {
		*allocs++
		return make([]int, n)
	}
	return s[:n]
}

// ResizeFloats is ResizeInts for float64 slices.
func ResizeFloats(s []float64, n int, allocs *int64) []float64 {
	if cap(s) < n {
		*allocs++
		return make([]float64, n)
	}
	return s[:n]
}
