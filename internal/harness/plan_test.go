package harness

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"

	"crsharing/internal/gen"
)

// draw is one arrival as a tenant's generator draws it: its due offset,
// class, and payload families and fingerprints.
type draw struct {
	offset       int64
	class        string
	families     []string
	fingerprints []string
}

// referenceDraws is the open-loop generator's draw logic with the timers
// taken out: per tenant, arrival k is due k/rate after the start, its class
// comes from the tenant's own RNG stream, the corpus is walked from offset
// ti*7, and online arrivals walk mutation chains drawn from that same
// stream. The plan must reproduce it draw for draw.
func referenceDraws(cfg Config) map[string][]draw {
	items := cfg.Corpus.Items()
	rng := rand.New(rand.NewSource(cfg.Corpus.Seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	loads := cfg.Tenants
	if len(loads) == 0 {
		loads = []TenantLoad{{Rate: cfg.Rate}}
	}
	out := make(map[string][]draw)
	for ti, tl := range loads {
		rng := rand.New(rand.NewSource(cfg.Corpus.Seed + int64(ti)*7919))
		rate := tl.Rate
		if rate <= 0 {
			rate = cfg.Rate
		}
		next := ti * 7
		var online Item
		onlineStep := onlineChainLen
		for k := 0; ; k++ {
			due := time.Duration(float64(k) * float64(time.Second) / rate)
			if due >= cfg.Duration {
				break
			}
			class := cfg.Mix.pick(rng)
			at := next
			next++
			var req []Item
			switch class {
			case ClassBatch:
				for i := 0; i < cfg.BatchSize; i++ {
					req = append(req, items[(at+i)%len(items)])
				}
			case ClassOnline:
				if onlineStep >= onlineChainLen {
					online = items[at%len(items)]
					onlineStep = 0
				} else {
					online.Inst = gen.Mutate(rng, online.Inst, gen.Mutations[onlineStep%len(gen.Mutations)])
					onlineStep++
				}
				req = []Item{online}
			default:
				req = []Item{items[at%len(items)]}
			}
			d := draw{offset: int64(due), class: class}
			for _, it := range req {
				d.families = append(d.families, it.Family)
				d.fingerprints = append(d.fingerprints, it.Inst.Fingerprint().String())
			}
			out[tl.Name] = append(out[tl.Name], d)
		}
	}
	return out
}

// TestPlanMatchesReferenceDraws pins the plan to the generator's draw order:
// per tenant, the planned (offset, class, families, fingerprints) sequence
// equals the reference's, the merged plan is sorted by (offset, tenant index)
// and numbered densely, every online chain opens on a fresh base and runs at
// most onlineChainLen mutations, and two plans of one Config encode
// byte-identically.
func TestPlanMatchesReferenceDraws(t *testing.T) {
	mix := Mix{Solve: 3, Batch: 1, Jobs: 1, Online: 3}
	for _, tc := range []struct {
		name    string
		tenants []TenantLoad
	}{
		{"anonymous", nil},
		{"three tenants", []TenantLoad{{Name: "gold", Rate: 90}, {Name: "silver", Rate: 60}, {Name: "free"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				BaseURL:  "http://unused",
				Corpus:   BuildCorpus(5),
				Mix:      mix,
				Rate:     120,
				Duration: 700 * time.Millisecond,
				Tenants:  tc.tenants,
			}
			d, err := NewDriver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			plan := d.plan
			want := referenceDraws(d.cfg)

			tenantIndex := map[string]int{}
			for i, tl := range tc.tenants {
				tenantIndex[tl.Name] = i
			}
			got := make(map[string][]draw)
			chainLen := map[int]int{}
			for i, e := range plan.Entries {
				if e.Seq != i {
					t.Fatalf("entry %d has Seq %d, want dense", i, e.Seq)
				}
				if i > 0 {
					prev := plan.Entries[i-1]
					if e.OffsetNS < prev.OffsetNS ||
						e.OffsetNS == prev.OffsetNS && tenantIndex[e.Tenant] < tenantIndex[prev.Tenant] {
						t.Fatalf("entry %d (%s at %d) is out of (offset, tenant) order after %s at %d",
							i, e.Tenant, e.OffsetNS, prev.Tenant, prev.OffsetNS)
					}
				}
				if (e.Class == ClassOnline) != (e.Chain > 0) {
					t.Fatalf("entry %d: class %s with chain %d", i, e.Class, e.Chain)
				}
				if e.Chain > 0 {
					chainLen[e.Chain]++
				}
				got[e.Tenant] = append(got[e.Tenant], draw{e.OffsetNS, e.Class, e.Families, fingerprints(e.Instances)})
			}
			if len(got) != len(want) {
				t.Fatalf("plan has %d tenants, reference %d", len(got), len(want))
			}
			for tenant, ref := range want {
				seq := got[tenant]
				if len(seq) != len(ref) {
					t.Fatalf("tenant %q: plan has %d arrivals, reference %d", tenant, len(seq), len(ref))
				}
				for k := range ref {
					g, w := seq[k], ref[k]
					if g.offset != w.offset || g.class != w.class ||
						!slices.Equal(g.families, w.families) || !slices.Equal(g.fingerprints, w.fingerprints) {
						t.Fatalf("tenant %q arrival %d: plan %+v, reference %+v", tenant, k, g, w)
					}
				}
			}
			if len(chainLen) < 2 {
				t.Fatalf("plan walked %d online chains; the test wants at least two", len(chainLen))
			}
			for c, n := range chainLen {
				if n > onlineChainLen+1 {
					t.Fatalf("chain %d has %d entries, want at most %d", c, n, onlineChainLen+1)
				}
			}

			again, err := NewDriver(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := plan.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			b, err := again.plan.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("two plans of one Config encode differently")
			}
		})
	}
}
