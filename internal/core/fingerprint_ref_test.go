package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/harness"
)

// The reference fingerprint and processor order: the blob-sorting
// implementation the in-place comparison replaced, kept verbatim so that the
// cache keys (and the golden corpus's fingerprint fields, and every snapshot
// written before) provably do not move.

func refProcBlobs(in *core.Instance) []string {
	blobs := make([]string, len(in.Procs))
	var buf []byte
	for i, js := range in.Procs {
		buf = buf[:0]
		for _, j := range js {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(j.Req+0))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(j.Size+0))
		}
		blobs[i] = string(buf)
	}
	return blobs
}

func refCanonicalProcOrder(in *core.Instance) []int {
	blobs := refProcBlobs(in)
	order := make([]int, len(blobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return blobs[order[a]] < blobs[order[b]] })
	return order
}

func refFingerprint(in *core.Instance) core.Fingerprint {
	blobs := refProcBlobs(in)
	sort.Strings(blobs)

	h := sha256.New()
	var frame [8]byte
	binary.LittleEndian.PutUint64(frame[:], uint64(len(blobs)))
	h.Write(frame[:])
	for _, b := range blobs {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(b)))
		h.Write(frame[:])
		h.Write([]byte(b))
	}
	var f core.Fingerprint
	h.Sum(f[:0])
	return f
}

// checkAgainstReference compares a fresh copy's fingerprint (the memo is not
// yet set) and canonical order with the reference.
func checkAgainstReference(t *testing.T, label string, inst *core.Instance) {
	t.Helper()
	fresh := inst.Clone()
	if got, want := fresh.Fingerprint(), refFingerprint(inst); got != want {
		t.Fatalf("%s: fingerprint %s, reference %s", label, got, want)
	}
	if got, want := inst.CanonicalProcOrder(), refCanonicalProcOrder(inst); !slices.Equal(got, want) {
		t.Fatalf("%s: canonical order %v, reference %v", label, got, want)
	}
}

func TestFingerprintMatchesReferenceOnCorpus(t *testing.T) {
	n := 0
	for _, seed := range []int64{1, 2, 3} {
		for _, it := range harness.BuildCorpus(seed).Items() {
			checkAgainstReference(t, it.Family, it.Inst)
			n++
		}
	}
	if n == 0 {
		t.Fatal("empty corpus")
	}
}

// randomTwistedInstance draws an instance from a small value alphabet, so
// rows collide and share prefixes, and mixes in negative zeros, empty
// processors, duplicate rows and non-unit sizes.
func randomTwistedInstance(rng *rand.Rand, m int) *core.Instance {
	alphabet := []float64{0, math.Copysign(0, -1), 0.25, 0.5, 1, 1.0 / 3, 1e-300, 0.75}
	sizes := []float64{1, 2, 0.5}
	procs := make([][]core.Job, m)
	for i := range procs {
		if i > 0 && rng.Intn(4) == 0 {
			procs[i] = slices.Clone(procs[rng.Intn(i)]) // duplicate row
			continue
		}
		n := rng.Intn(5) // 0 gives an empty processor
		for j := 0; j < n; j++ {
			procs[i] = append(procs[i], core.Job{
				Req:  alphabet[rng.Intn(len(alphabet))],
				Size: sizes[rng.Intn(len(sizes))],
			})
		}
	}
	return core.NewSizedInstance(procs...)
}

func TestFingerprintMatchesReferenceOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		m := 1 + rng.Intn(8)
		if trial%10 == 0 {
			m = 33 + rng.Intn(40) // past the stack-held processor order
		}
		checkAgainstReference(t, "twisted", randomTwistedInstance(rng, m))
	}
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(40)
		checkAgainstReference(t, "random", gen.Random(rng, m, 1+rng.Intn(80), 0.05, 1))
	}
	// Past the stack-held hash buffer.
	checkAgainstReference(t, "large", gen.Random(rng, 20, 64, 0.05, 1))
	checkAgainstReference(t, "empty", core.NewInstance())
	checkAgainstReference(t, "all-empty", core.NewInstance(nil, nil, nil))
}

// TestFingerprintSignOfZero pins that instances Equal up to the sign of zero
// share a fingerprint and a canonical order.
func TestFingerprintSignOfZero(t *testing.T) {
	neg := math.Copysign(0, -1)
	a := core.NewInstance([]float64{0, 0.5}, []float64{neg, 0.25}, []float64{0})
	b := core.NewInstance([]float64{neg, 0.5}, []float64{0, 0.25}, []float64{neg})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("the sign of zero must not change the fingerprint")
	}
	if !slices.Equal(a.CanonicalProcOrder(), b.CanonicalProcOrder()) {
		t.Fatal("the sign of zero must not change the canonical order")
	}
}
