package harness

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/solver"
)

// referenceBudget bounds each member's standalone reference run. The
// configuration enumeration runs for minutes on some resource-tight and
// adversarial-dup instances; referenceArgmin accepts a member cut off by the
// budget only where an earlier finished member provably beats it.
const referenceBudget = 250 * time.Millisecond

// raceDeadline is the parent deadline of the portfolio runs; a race that
// settles as it should ends long before it.
const raceDeadline = 10 * time.Second

// settleFamilies are the corpus families the identity test covers.
var settleFamilies = []string{FamilyTinyExact, FamilyResourceTight, FamilyAdversarialDup, FamilyPaperFigures}

// referenceArgmin runs every default portfolio member alone and applies the
// portfolio's choice — lowest makespan, then strictly less waste, then
// member order — with no early stop. It returns the winner's index and
// schedule.
func referenceArgmin(t *testing.T, inst *core.Instance) (int, *core.Schedule) {
	t.Helper()
	members := solver.NewDefaultPortfolio().Members
	type outcome struct {
		sched    *core.Schedule
		makespan int
		wasted   float64
		ok, cut  bool
	}
	outs := make([]outcome, len(members))
	bound := core.LowerBounds(inst).Best()
	for i, m := range members {
		ctx, cancel := context.WithTimeout(context.Background(), referenceBudget)
		sched, _, err := m.Solve(ctx, inst)
		// The anytime member answers with its incumbent when its context
		// ends, so any run that met the budget counts as cut off.
		cut := ctx.Err() != nil
		cancel()
		if cut {
			outs[i].cut = true
			continue
		}
		if err != nil {
			continue // the member rejects the instance
		}
		res, err := core.Execute(inst, sched)
		if err != nil || !res.Finished() {
			t.Fatalf("%s: invalid schedule (%v)", m.Name(), err)
		}
		outs[i] = outcome{sched: sched, makespan: res.Makespan(), wasted: res.Wasted(), ok: true}
		if e, exact := m.(interface{ IsExact() bool }); exact && e.IsExact() && res.Makespan() > bound {
			bound = res.Makespan()
		}
	}
	best := -1
	for i, o := range outs {
		if o.ok && (best < 0 || o.makespan < outs[best].makespan ||
			(o.makespan == outs[best].makespan && o.wasted < outs[best].wasted)) {
			best = i
		}
	}
	// A member cut off by the budget can at best tie a zero-waste answer at
	// the bound, and then loses on order only to an earlier member.
	for j, o := range outs {
		if o.cut && (best < 0 || best > j || outs[best].makespan != bound || outs[best].wasted != 0) {
			t.Fatalf("reference undetermined: %s ran past %v and could still win", members[j].Name(), referenceBudget)
		}
	}
	if best < 0 {
		t.Fatal("reference: every member failed")
	}
	return best, outs[best].sched
}

// settleCases returns the identity test's instances: seeded small uneven
// instances plus the covered corpus families of seeds 1-3.
func settleCases() []settleCase {
	var cases []settleCase
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		inst := gen.RandomUneven(rng, 2+rng.Intn(2), 2, 4, 0.05, 0.95)
		cases = append(cases, settleCase{fmt.Sprintf("uneven/%d", i), inst})
	}
	for seed := int64(1); seed <= 3; seed++ {
		corpus := BuildCorpus(seed)
		for _, fam := range settleFamilies {
			for i, inst := range corpus.Family(fam).Instances {
				cases = append(cases, settleCase{fmt.Sprintf("seed%d/%s/%d", seed, fam, i), inst})
			}
		}
	}
	return cases
}

type settleCase struct {
	name string
	inst *core.Instance
}

// TestPortfolioSettleMatchesReference checks that ending the race on a
// certified answer never changes it: the portfolio returns the winner and
// the allocation-identical schedule that running every member to completion
// and taking the argmin gives.
func TestPortfolioSettleMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every portfolio member alone on 390 instances")
	}
	members := solver.NewDefaultPortfolio().Members
	for _, c := range settleCases() {
		name, inst := c.name, c.inst
		want, wantSched := referenceArgmin(t, inst)
		ctx, cancel := context.WithTimeout(context.Background(), raceDeadline)
		sched, st, err := solver.NewDefaultPortfolio().Solve(ctx, inst)
		expired := ctx.Err() != nil
		cancel()
		if err != nil || expired {
			t.Fatalf("%s: portfolio: %v (deadline hit: %v)", name, err, expired)
		}
		if st.Winner != members[want].Name() {
			t.Fatalf("%s: winner %s, reference %s", name, st.Winner, members[want].Name())
		}
		if !sameAllocation(sched, wantSched) {
			t.Fatalf("%s: %s's schedule differs from its standalone run\nportfolio:\n%v\nreference:\n%v", name, st.Winner, sched, wantSched)
		}
	}
}

// TestPortfolioSettleBeforeDeadline checks that on the families where the
// configuration enumeration blows up, every race ends on a certified answer
// while its parent context is still live.
func TestPortfolioSettleBeforeDeadline(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		corpus := BuildCorpus(seed)
		for _, fam := range []string{FamilyResourceTight, FamilyAdversarialDup} {
			for i, inst := range corpus.Family(fam).Instances {
				ctx, cancel := context.WithTimeout(context.Background(), raceDeadline)
				_, _, err := solver.NewDefaultPortfolio().Solve(ctx, inst)
				expired := ctx.Err()
				cancel()
				if err != nil || expired != nil {
					t.Errorf("seed%d/%s/%d: portfolio returned %v with parent context error %v", seed, fam, i, err, expired)
				}
			}
		}
	}
}

// sameAllocation reports whether two schedules allocate exactly the same
// shares in every step.
func sameAllocation(a, b *core.Schedule) bool {
	if a.Steps() != b.Steps() {
		return false
	}
	for t := range a.Alloc {
		if len(a.Alloc[t]) != len(b.Alloc[t]) {
			return false
		}
		for i := range a.Alloc[t] {
			if a.Alloc[t][i] != b.Alloc[t][i] {
				return false
			}
		}
	}
	return true
}
