package branchbound

import (
	"bytes"
	"sync"

	"crsharing/internal/algo/moves"
	"crsharing/internal/core"
)

// searchScratch bundles every reusable buffer one branch-and-bound search
// needs: one level per search depth, the open-addressing visited table with
// its byte-key arena, the symmetry grouping of identical processors, the
// suffix-work table, the builder the greedy seed is built on and the Result
// it executes into. Scratches are pooled so a steady-state solve performs no
// heap allocations on the search path; the scratch counts its own growth
// events in allocs, which the solver reports through progress.AddAllocs.
type searchScratch struct {
	m int // processor width the buffers are currently sized for

	// levels[d] holds the search's state at depth d (levels[0] is the root)
	// and the moves from it. A level is only written while its parent's
	// successor loop derives into it or while it expands its own state,
	// never by the deeper recursion, so its moves stay derivable for the
	// whole loop.
	levels []*level

	visited visitedTable

	// Symmetry breaking: groupRep[i] is the lowest-numbered processor whose
	// job sequence is identical to processor i's (i itself when unique).
	// States that agree up to permuting processors within one group encode
	// to the same canonical visited key, so the visited prune collapses the
	// symmetric copies of every subtree.
	groupRep []int
	hasSym   bool

	expand moves.Scratch // temporaries of moves.Expand
	keyBuf []byte        // scratch for the canonical state key
	pairD  []int         // scratch (done half) for sorting one symmetry group
	pairR  []int64       // scratch (rounded-rem half) for the same

	// suffix is the instance's suffix-work table (see suffixWork), its rows
	// carved from suffixSlab.
	suffix     suffixWork
	suffixSlab []float64

	// builder builds the GreedyBalance seed; the search overwrites the
	// seed's rows as the incumbent improves, and the answer is copied out.
	builder core.Builder
	// res is the Result the seed and an offered warm-start hint execute
	// into (see Schedule).
	res core.Result

	allocs int64 // heap-growth events recorded during the current solve
}

// level is one depth of the search path: the state reached there, the moves
// from it, and the allocation row of the move the search descends through.
// The alloc rows of depths 0..d-1 are the schedule of the path to depth d.
type level struct {
	done  []int
	rem   []float64
	alloc []float64
	moves moves.Buf
}

// scratchPool keeps the scratches between solves. A sync.Pool drops them at
// GC cycles, so a busy server regrows some scratch every few tens of
// milliseconds. A free list that never drops them was measured on
// servebench's online-chain workload: it saved another 2.2 KiB of the
// ~27 KiB allocated per request, but the live heap rose from 7.6 MiB to
// 15.5-21 MiB, since every scratch ever grown stays at its largest size.
// The pool stays.
var scratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// getScratch returns a pooled scratch prepared for the instance.
func getScratch(inst *core.Instance) *searchScratch {
	sc := scratchPool.Get().(*searchScratch)
	sc.prepare(inst)
	return sc
}

func putScratch(sc *searchScratch) { scratchPool.Put(sc) }

// prepare sizes the scratch for the instance and resets all per-solve state.
func (sc *searchScratch) prepare(inst *core.Instance) {
	m := inst.NumProcessors()
	sc.m = m
	sc.allocs = 0
	for _, lv := range sc.levels {
		sc.size(lv)
	}
	root := sc.level(0)
	for i := 0; i < m; i++ {
		root.done[i] = 0
		root.rem[i] = moves.Work(inst, i, 0)
	}
	sc.fillSuffix(inst)
	sc.computeGroups(inst)
	sc.visited.reset(&sc.allocs)
}

// fillSuffix builds the suffix-work table of inst in the scratch.
func (sc *searchScratch) fillSuffix(inst *core.Instance) {
	m := inst.NumProcessors()
	sc.suffixSlab = moves.ResizeFloats(sc.suffixSlab, inst.TotalJobs()+m, &sc.allocs)
	if cap(sc.suffix) < m {
		sc.allocs++
		sc.suffix = make(suffixWork, m)
	}
	sc.suffix = sc.suffix[:m]
	slab := sc.suffixSlab
	for i := range sc.suffix {
		n := inst.NumJobs(i)
		row := slab[: n+1 : n+1]
		slab = slab[n+1:]
		row[n] = 0
		for j := n - 1; j >= 0; j-- {
			row[j] = row[j+1] + inst.Job(i, j).Work()
		}
		sc.suffix[i] = row
	}
}

// level returns the level of the given depth, growing the ladder on first
// descent.
func (sc *searchScratch) level(depth int) *level {
	for len(sc.levels) <= depth {
		if cap(sc.levels) == len(sc.levels) {
			sc.allocs++
		}
		lv := new(level)
		sc.size(lv)
		sc.levels = append(sc.levels, lv)
	}
	return sc.levels[depth]
}

// size gives lv's rows the scratch's processor width.
func (sc *searchScratch) size(lv *level) {
	lv.done = moves.ResizeInts(lv.done, sc.m, &sc.allocs)
	lv.rem = moves.ResizeFloats(lv.rem, sc.m, &sc.allocs)
	lv.alloc = moves.ResizeFloats(lv.alloc, sc.m, &sc.allocs)
}

// computeGroups partitions the processors into groups with exactly identical
// job sequences. Quadratic in m, run once per solve; m is small.
func (sc *searchScratch) computeGroups(inst *core.Instance) {
	m := inst.NumProcessors()
	sc.groupRep = moves.ResizeInts(sc.groupRep, m, &sc.allocs)
	sc.hasSym = false
	for i := 0; i < m; i++ {
		sc.groupRep[i] = i
		for j := 0; j < i; j++ {
			if sc.groupRep[j] == j && sameJobs(inst, i, j) {
				sc.groupRep[i] = j
				sc.hasSym = true
				break
			}
		}
	}
}

func sameJobs(inst *core.Instance, a, b int) bool {
	if inst.NumJobs(a) != inst.NumJobs(b) {
		return false
	}
	for j := 0; j < inst.NumJobs(a); j++ {
		ja, jb := inst.Job(a, j), inst.Job(b, j)
		if ja.Req != jb.Req || ja.Size != jb.Size {
			return false
		}
	}
	return true
}

// stateKey encodes (done, rem) into the scratch key buffer as the packed key
// of package moves. With symmetric processors present, the pairs of each
// symmetry group are sorted before encoding, so permuting identical
// processors yields the same key and the visited prune removes the redundant
// subtrees.
func (sc *searchScratch) stateKey(done []int, rem []float64) []byte {
	buf := sc.keyBuf[:0]
	prevCap := cap(buf)
	if !sc.hasSym {
		buf = moves.AppendKey(buf, done, rem)
	} else {
		for i := 0; i < sc.m; i++ {
			if sc.groupRep[i] != i {
				continue // encoded with its representative
			}
			pd, pr := sc.pairD[:0], sc.pairR[:0]
			for j := i; j < sc.m; j++ {
				if sc.groupRep[j] == i {
					pd = append(pd, done[j])
					pr = append(pr, moves.RoundRem(rem[j]))
				}
			}
			// Canonical order within the group: (done, rem) ascending.
			for a := 1; a < len(pd); a++ {
				for b := a; b > 0 && (pd[b] < pd[b-1] || (pd[b] == pd[b-1] && pr[b] < pr[b-1])); b-- {
					pd[b], pd[b-1] = pd[b-1], pd[b]
					pr[b], pr[b-1] = pr[b-1], pr[b]
				}
			}
			for p := range pd {
				buf = moves.AppendPair(buf, pd[p], pr[p])
			}
			if cap(pd) > cap(sc.pairD) {
				sc.pairD, sc.pairR = pd, pr
				sc.allocs++
			}
		}
	}
	if cap(buf) != prevCap {
		sc.allocs++
	}
	sc.keyBuf = buf
	return buf
}

// visitedTable is an open-addressing hash table from canonical state keys to
// the shallowest depth the state was reached at. Keys live in one append-only
// byte arena, so the table performs no per-entry allocations. A slot belongs
// to the current solve only when its stamp equals the table's gen, so
// clearing the table for the next solve bumps gen and resets the arena
// length; the slots are zeroed only when gen wraps around. A table grown by
// one heavy search therefore costs a search that stops at its root nothing.
type visitedTable struct {
	entries []visitedEntry // length is a power of two
	keys    []byte         // arena holding every inserted key back to back
	count   int
	gen     uint32 // stamp of the current solve's slots; never 0 once reset
}

type visitedEntry struct {
	hash  uint64
	off   uint32
	klen  uint32
	depth int32
	gen   uint32 // the slot is empty unless it equals visitedTable.gen
}

const visitedMinSize = 1 << 10

func (vt *visitedTable) reset(allocs *int64) {
	if vt.entries == nil {
		vt.entries = make([]visitedEntry, visitedMinSize)
		*allocs++
	}
	vt.gen++
	if vt.gen == 0 {
		clear(vt.entries)
		vt.gen = 1
	}
	vt.keys = vt.keys[:0]
	vt.count = 0
}

// visit looks the key up, recording depth as the shallowest visit. It
// returns true when the state was already reached at the same or a smaller
// depth — the caller prunes — and false otherwise.
func (vt *visitedTable) visit(key []byte, depth int, allocs *int64) bool {
	if vt.count*4 >= len(vt.entries)*3 {
		vt.grow(allocs)
	}
	h := fnv64(key)
	mask := uint64(len(vt.entries) - 1)
	i := h & mask
	for {
		e := &vt.entries[i]
		if e.gen != vt.gen {
			off := len(vt.keys)
			if cap(vt.keys)-off < len(key) {
				*allocs++
			}
			vt.keys = append(vt.keys, key...)
			*e = visitedEntry{hash: h, off: uint32(off), klen: uint32(len(key)), depth: int32(depth), gen: vt.gen}
			vt.count++
			return false
		}
		if e.hash == h && int(e.klen) == len(key) && bytes.Equal(vt.keys[e.off:e.off+uint32(len(key))], key) {
			if int(e.depth) <= depth {
				return true
			}
			e.depth = int32(depth)
			return false
		}
		i = (i + 1) & mask
	}
}

func (vt *visitedTable) grow(allocs *int64) {
	old := vt.entries
	vt.entries = make([]visitedEntry, len(old)*2)
	*allocs++
	mask := uint64(len(vt.entries) - 1)
	for _, e := range old {
		if e.gen != vt.gen {
			continue
		}
		i := e.hash & mask
		for vt.entries[i].gen == vt.gen {
			i = (i + 1) & mask
		}
		vt.entries[i] = e
	}
}

// fnv64 is the FNV-1a hash, inlined to keep the visited probe allocation-free.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
