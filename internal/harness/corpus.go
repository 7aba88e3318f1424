package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// Family is a named group of instances that share a workload shape.
type Family struct {
	// Name identifies the family, e.g. "tiny-exact".
	Name string `json:"name"`
	// Instances are the family's members in a deterministic order.
	Instances []*core.Instance `json:"instances"`
}

// Item is one corpus entry with its family attribution, the unit the load
// driver replays.
type Item struct {
	Family string
	Inst   *core.Instance
}

// Corpus is the deterministic instance corpus a load run replays. Build one
// with BuildCorpus; the same seed always yields the byte-identical corpus.
type Corpus struct {
	Seed     int64    `json:"seed"`
	Families []Family `json:"families"`
}

// Family names emitted by BuildCorpus.
const (
	// FamilyTinyExact holds small instances every exact solver finishes in
	// well under a millisecond; they dominate the sync-solve mix and are the
	// golden-corpus substrate.
	FamilyTinyExact = "tiny-exact"
	// FamilyWideManyProc holds instances with many processors and uneven job
	// counts, the regime the balanced schedules of the paper's Section 8 are
	// about.
	FamilyWideManyProc = "wide-many-proc"
	// FamilyResourceTight holds instances whose requirements crowd the unit
	// resource (bimodal heavy mixtures and near-saturation uniforms), where
	// bandwidth scheduling decisions matter most.
	FamilyResourceTight = "resource-tight"
	// FamilyAdversarialDup holds processor-permuted duplicates of a few base
	// instances: every duplicate has the fingerprint of its base, so a replay
	// stresses the memo-cache hit path and its schedule remap (the cache's
	// permutation of canonical columns, equal to core.RemapScheduleProcs).
	FamilyAdversarialDup = "adversarial-dup"
	// FamilyPaperFigures holds the paper's fixed constructions (Figures 1-3,
	// the Theorem 8 block construction) as seed-independent anchors.
	FamilyPaperFigures = "paper-figures"
	// FamilyGreedyTrap holds the greedy worst-case construction at a few
	// widths: instances on which GreedyBalance is provably suboptimal, so
	// the exact kernels must actually search and the anytime tier's
	// incumbent stream is visible under load (random families are usually
	// confirmed by the work bound in a single node).
	FamilyGreedyTrap = "greedy-trap"
)

// FamilyNames lists the families BuildCorpus emits, in corpus order.
func FamilyNames() []string {
	return []string{
		FamilyTinyExact,
		FamilyWideManyProc,
		FamilyResourceTight,
		FamilyAdversarialDup,
		FamilyPaperFigures,
		FamilyGreedyTrap,
	}
}

// BuildCorpus expands one seed into the full corpus. Each family derives its
// own rand stream from the seed and its position, so adding a family never
// perturbs the instances of the existing ones.
func BuildCorpus(seed int64) *Corpus {
	c := &Corpus{Seed: seed}
	sub := func(i int64) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + i)) }
	c.Families = []Family{
		{Name: FamilyTinyExact, Instances: buildTinyExact(sub(1))},
		{Name: FamilyWideManyProc, Instances: buildWideManyProc(sub(2))},
		{Name: FamilyResourceTight, Instances: buildResourceTight(sub(3))},
		{Name: FamilyAdversarialDup, Instances: buildAdversarialDup(sub(4))},
		{Name: FamilyPaperFigures, Instances: buildPaperFigures()},
		{Name: FamilyGreedyTrap, Instances: buildGreedyTrap()},
	}
	return c
}

// buildTinyExact draws small instances (2-3 processors, 2-4 jobs each) with
// requirements spread over (0, 1); exact solvers finish them instantly.
func buildTinyExact(rng *rand.Rand) []*core.Instance {
	var out []*core.Instance
	for i := 0; i < 8; i++ {
		m := 2 + rng.Intn(2)
		out = append(out, gen.RandomUneven(rng, m, 2, 4, 0.05, 0.95))
	}
	return out
}

// buildWideManyProc draws instances with 8-16 processors and uneven job
// counts.
func buildWideManyProc(rng *rand.Rand) []*core.Instance {
	var out []*core.Instance
	for _, m := range []int{8, 12, 16} {
		out = append(out, gen.RandomUneven(rng, m, 2, 6, 0.05, 0.9))
		out = append(out, gen.Random(rng, m, 4, 0.1, 0.8))
	}
	return out
}

// buildResourceTight draws heavy bimodal mixtures and near-saturation
// uniforms.
func buildResourceTight(rng *rand.Rand) []*core.Instance {
	var out []*core.Instance
	for i := 0; i < 3; i++ {
		out = append(out, gen.RandomBimodal(rng, 4, 4, 0.8))
	}
	for i := 0; i < 3; i++ {
		out = append(out, gen.Random(rng, 3, 4, 0.85, 1.0))
	}
	return out
}

// buildAdversarialDup emits each of three base instances four times with its
// processors listed in a different order. All copies of a base share one
// fingerprint, so replaying the family turns into cache hits whose schedules
// must be remapped to the requester's processor order.
func buildAdversarialDup(rng *rand.Rand) []*core.Instance {
	bases := []*core.Instance{
		gen.Random(rng, 4, 3, 0.1, 0.9),
		gen.RandomUneven(rng, 5, 2, 5, 0.05, 0.95),
		gen.RandomBimodal(rng, 3, 4, 0.5),
	}
	var out []*core.Instance
	for _, base := range bases {
		out = append(out, base)
		for k := 0; k < 3; k++ {
			out = append(out, PermuteProcs(base, rng.Perm(base.NumProcessors())))
		}
	}
	return out
}

// buildPaperFigures returns the seed-independent anchors from the paper.
func buildPaperFigures() []*core.Instance {
	return []*core.Instance{
		gen.Figure1(),
		gen.Figure2(),
		gen.Figure3(8),
		gen.GreedyWorstCase(3, 2, 0.01),
	}
}

// buildGreedyTrap emits the greedy worst case at increasing widths. The
// family is seed-independent. Widths stay moderate (exact search in the
// low tens of milliseconds) so replaying the family under a load mix does
// not clog the admission slots of a short smoke run.
func buildGreedyTrap() []*core.Instance {
	var out []*core.Instance
	for _, m := range []int{3, 4, 5} {
		out = append(out, gen.GreedyWorstCase(m, 2, 1.0/(20*float64(m)*float64(m+1))))
	}
	return out
}

// PermuteProcs returns a copy of inst whose processor i is the input's
// processor perm[i]. Permuting processors preserves the canonical fingerprint
// (the scheduling problem is unchanged), which is exactly what the
// adversarial-dup family exploits.
func PermuteProcs(inst *core.Instance, perm []int) *core.Instance {
	if len(perm) != inst.NumProcessors() {
		panic(fmt.Sprintf("harness: permutation of length %d for %d processors", len(perm), inst.NumProcessors()))
	}
	out := &core.Instance{Procs: make([][]core.Job, len(perm))}
	for i, p := range perm {
		out.Procs[i] = append([]core.Job(nil), inst.Procs[p]...)
	}
	return out
}

// Items flattens the corpus into (family, instance) pairs in deterministic
// order.
func (c *Corpus) Items() []Item {
	var items []Item
	for _, f := range c.Families {
		for _, inst := range f.Instances {
			items = append(items, Item{Family: f.Name, Inst: inst})
		}
	}
	return items
}

// Family returns the named family, or nil.
func (c *Corpus) Family(name string) *Family {
	for i := range c.Families {
		if c.Families[i].Name == name {
			return &c.Families[i]
		}
	}
	return nil
}

// Size returns the total number of instances in the corpus.
func (c *Corpus) Size() int {
	n := 0
	for _, f := range c.Families {
		n += len(f.Instances)
	}
	return n
}

// Validate checks every instance of every family against the model's domain.
func (c *Corpus) Validate() error {
	for _, f := range c.Families {
		if len(f.Instances) == 0 {
			return fmt.Errorf("harness: family %q is empty", f.Name)
		}
		for i, inst := range f.Instances {
			if err := inst.Validate(); err != nil {
				return fmt.Errorf("harness: family %q instance %d: %w", f.Name, i, err)
			}
		}
	}
	return nil
}

// MarshalBytes serialises the corpus to canonical JSON; two corpora built
// from the same seed marshal byte-identically, which the determinism tests
// pin.
func (c *Corpus) MarshalBytes() ([]byte, error) {
	return json.Marshal(c)
}
