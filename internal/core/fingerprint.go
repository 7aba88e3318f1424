package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"slices"
)

// Fingerprint is a canonical, order-normalized identity of an instance: two
// instances that differ only in the order of their processors (the processors
// are identical, so permuting them yields an equivalent scheduling problem)
// hash to the same fingerprint, while any change to a job's requirement,
// size, or position within its processor's sequence changes it. It is the
// memo-cache key of the serving layer.
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 12 hex digits, enough for log lines and metrics
// labels.
func (f Fingerprint) Short() string { return hex.EncodeToString(f[:6]) }

// Uint64 folds the fingerprint's leading bytes into a uniform 64-bit key.
// SHA-256 output is uniform, so the prefix is already a high-quality hash —
// this is the shard/ring key of every fingerprint-partitioned tier.
func (f Fingerprint) Uint64() uint64 { return binary.BigEndian.Uint64(f[:8]) }

// Shard maps the fingerprint onto one of n shards (n must be positive). Two
// instances with equal fingerprints land on the same shard on every machine,
// which is what makes the memo-cache tier partitionable by instance identity.
func (f Fingerprint) Shard(n int) int { return int(f.Uint64() % uint64(n)) }

// rowKey is a float's sort key within a processor row: its IEEE 754 bits,
// with negative zero normalized to positive zero (so that instances Equal up
// to the sign of zero order and hash identically), byte-reversed so that
// comparing keys as integers orders values exactly as comparing their
// little-endian encodings byte by byte does.
func rowKey(x float64) uint64 { return bits.ReverseBytes64(math.Float64bits(x + 0)) }

// compareRows orders two processors' job sequences by their canonical
// serialization — 16 bytes per job, requirement then size as little-endian
// IEEE 754 bits — compared byte-wise, a proper prefix first. It compares in
// place, without building the serializations.
func compareRows(a, b []Job) int {
	for k := range min(len(a), len(b)) {
		if c := cmp.Compare(rowKey(a[k].Req), rowKey(b[k].Req)); c != 0 {
			return c
		}
		if c := cmp.Compare(rowKey(a[k].Size), rowKey(b[k].Size)); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// sortProcs fills order with the processor indices sorted by compareRows,
// ties by index.
func (in *Instance) sortProcs(order []int) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := compareRows(in.Procs[a], in.Procs[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// CanonicalProcOrder returns the instance's processor indices sorted by
// their canonical serialization (ties by index, so the order is
// deterministic). Two instances with equal fingerprints list pairwise
// identical job sequences under this order, which is what makes schedules
// transferable between them — see RemapScheduleProcs.
func (in *Instance) CanonicalProcOrder() []int {
	order := make([]int, len(in.Procs))
	in.sortProcs(order)
	return order
}

// AppendCanonicalProcOrder appends CanonicalProcOrder to dst and returns the
// extended slice, so a caller with a buffer of room for the processors
// computes the order without allocating.
func (in *Instance) AppendCanonicalProcOrder(dst []int) []int {
	n := len(dst)
	dst = slices.Grow(dst, len(in.Procs))[:n+len(in.Procs)]
	in.sortProcs(dst[n:])
	return dst
}

// RemapScheduleProcs transfers a schedule computed for instance from onto
// instance to, which must have the same fingerprint: the processor columns
// are permuted so that column i of the result feeds the processor of to
// whose job sequence matches the one column i fed in from. Processors with
// identical job sequences are interchangeable, so any consistent matching is
// valid. When the instances already list their processors in the same order
// the schedule is returned unchanged.
func RemapScheduleProcs(from, to *Instance, sched *Schedule) *Schedule {
	if from.Equal(to) {
		return sched
	}
	fromOrder := from.CanonicalProcOrder()
	toOrder := to.CanonicalProcOrder()
	out := NewSchedule(sched.Steps(), to.NumProcessors())
	for k := range toOrder {
		src, dst := fromOrder[k], toOrder[k]
		for t := range out.Alloc {
			out.Alloc[t][dst] = sched.Share(t, src)
		}
	}
	return out
}

// Fingerprint computes the instance's canonical fingerprint.
//
// Each processor's job sequence is serialized in order (job order on a
// processor is part of the problem): 16 bytes per job, requirement then size
// as little-endian IEEE 754 bits with negative zeros normalized. The
// serializations are sorted byte-wise to normalize processor order (compared
// in place, see compareRows), and their length-framed concatenation, led by
// the processor count, is hashed with SHA-256 from one buffer.
//
// The result is memoised on the instance (instances are immutable once
// built), so repeated calls — cache key, response field, batch shards,
// routing — hash once.
func (in *Instance) Fingerprint() Fingerprint {
	if f := in.fp.Load(); f != nil {
		return *f
	}
	f := in.fingerprint()
	in.fp.Store(&f)
	return f
}

func (in *Instance) fingerprint() Fingerprint {
	m := len(in.Procs)
	var orderStack [32]int
	order := orderStack[:min(m, len(orderStack))]
	if m > len(orderStack) {
		order = make([]int, m)
	}
	in.sortProcs(order)

	var bufStack [2048]byte
	buf := bufStack[:0]
	if size := 8 + 8*m + 16*in.TotalJobs(); size > len(bufStack) {
		buf = make([]byte, 0, size)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m))
	for _, i := range order {
		js := in.Procs[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(16*len(js)))
		for _, j := range js {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(j.Req+0))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(j.Size+0))
		}
	}
	return sha256.Sum256(buf)
}
