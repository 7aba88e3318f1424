package branchbound

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/algo/moves"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
)

// refSolver is the search as it stood before it stopped at the root bound
// and derived successors lazily: every successor of an expanded node is
// derived up front, and the search walks every sibling left on its stack
// once the incumbent meets the root bound. It shares the kernel's scratch
// for the visited table, the state key and the suffix table.
type refSolver struct {
	ctx       context.Context
	inst      *core.Instance
	name      string
	sc        *searchScratch
	best      int
	bestMoves [][]float64
	nodes     int
	maxNodes  int

	levels []*eagerBuf // successor rows per depth
	path   [][]float64 // per depth, the allocation row chosen there
}

// eagerBuf holds every successor of one state as rows, derived at
// expansion time.
type eagerBuf struct {
	moves.Buf
	m          int
	done       []int
	rem, alloc []float64
}

func (b *eagerBuf) expand(inst *core.Instance, sc *moves.Scratch, done []int, rem []float64, allocs *int64) {
	moves.Expand(inst, sc, done, rem, &b.Buf, allocs)
	m := inst.NumProcessors()
	n := b.Len() * m
	b.m = m
	b.done = append(b.done[:0], make([]int, n)...)
	b.rem = append(b.rem[:0], make([]float64, n)...)
	b.alloc = append(b.alloc[:0], make([]float64, n)...)
	for i := 0; i < b.Len(); i++ {
		b.Derive(inst, i, b.DoneRow(i), b.RemRow(i), b.AllocRow(i))
	}
}

func (b *eagerBuf) DoneRow(i int) []int      { return b.done[i*b.m : (i+1)*b.m] }
func (b *eagerBuf) RemRow(i int) []float64   { return b.rem[i*b.m : (i+1)*b.m] }
func (b *eagerBuf) AllocRow(i int) []float64 { return b.alloc[i*b.m : (i+1)*b.m] }

func (sv *refSolver) level(depth int) *eagerBuf {
	for len(sv.levels) <= depth {
		sv.levels = append(sv.levels, new(eagerBuf))
	}
	return sv.levels[depth]
}

func (sv *refSolver) pathRow(depth int, row []float64) {
	for len(sv.path) <= depth {
		sv.path = append(sv.path, nil)
	}
	sv.path[depth] = row
}

// search is the kernel's search before the change, verbatim but for the
// receiver and the eager buffer's expand call.
func (sv *refSolver) search(done []int, rem []float64, depth int) error {
	sv.nodes++
	if sv.nodes > sv.maxNodes {
		return fmt.Errorf("branchbound: node limit of %d exceeded", sv.maxNodes)
	}
	if sv.nodes&ctxCheckMask == 0 {
		select {
		case <-sv.ctx.Done():
			return sv.ctx.Err()
		default:
		}
	}
	finished := true
	for i := range done {
		if done[i] < sv.inst.NumJobs(i) {
			finished = false
			break
		}
	}
	if finished {
		if depth < sv.best {
			sv.best = depth
			sv.copyIncumbent(depth)
			progress.Report(sv.ctx, progress.Incumbent{Solver: sv.name, Makespan: depth})
		}
		return nil
	}
	if b := depth + lowerBound(sv.inst, sv.sc.suffix, done, rem); b >= sv.best {
		return nil
	}
	if sv.sc.visited.visit(sv.sc.stateKey(done, rem), depth, &sv.sc.allocs) {
		return nil
	}

	buf := sv.level(depth)
	buf.expand(sv.inst, &sv.sc.expand, done, rem, &sv.sc.allocs)
	for _, i := range buf.Order() {
		sv.pathRow(depth, buf.AllocRow(i))
		if err := sv.search(buf.DoneRow(i), buf.RemRow(i), depth+1); err != nil {
			return err
		}
	}
	return nil
}

func (sv *refSolver) copyIncumbent(depth int) {
	sv.bestMoves = sv.bestMoves[:depth]
	for t := 0; t < depth; t++ {
		copy(sv.bestMoves[t], sv.path[t])
	}
}

// refSchedule is the former search's Schedule, on refSolver: the greedy
// seed comes from greedybalance's Schedule, and the answer is the seed
// itself or a copy of the improved incumbent.
func refSchedule(ctx context.Context, inst *core.Instance) (*core.Schedule, error) {
	sc := getScratch(inst)
	defer putScratch(sc)
	seed, err := greedybalance.New().Schedule(context.Background(), inst)
	if err != nil {
		return nil, err
	}
	res, err := core.ExecuteInto(&sc.res, inst, seed)
	if err != nil || !res.Finished() {
		return nil, fmt.Errorf("greedy seed: %v", err)
	}
	seedMakespan := res.Makespan()
	if hint, hm := acceptWarmStart(ctx, inst, seedMakespan, &sc.res); hint != nil {
		seed, seedMakespan = hint, hm
	}
	sv := &refSolver{
		ctx: ctx, inst: inst, name: "branch-and-bound", sc: sc,
		best: seedMakespan, bestMoves: seed.Alloc, maxNodes: DefaultMaxNodes,
	}
	progress.Report(ctx, progress.Incumbent{Solver: sv.name, Makespan: sv.best})
	root := sc.levels[0]
	err = sv.search(root.done, root.rem, 0)
	progress.AddNodes(ctx, int64(sv.nodes))
	if err != nil {
		return nil, err
	}
	if sv.best == seedMakespan {
		return seed, nil
	}
	sched := core.NewSchedule(sv.best, inst.NumProcessors())
	for t := range sched.Alloc {
		copy(sched.Alloc[t], sv.bestMoves[t])
	}
	return sched, nil
}

// observed runs solve on inst under an incumbent observer and node
// counters.
func observed(t *testing.T, inst *core.Instance, solve func(context.Context, *core.Instance) (*core.Schedule, error)) (*core.Schedule, []progress.Incumbent, int) {
	t.Helper()
	var reports []progress.Incumbent
	var ctr progress.Counters
	ctx := progress.WithObserver(progress.WithCounters(context.Background(), &ctr),
		func(inc progress.Incumbent) { reports = append(reports, inc) })
	sched, err := solve(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	return sched, reports, int(ctr.Nodes.Load())
}

// TestStopsAtRootBoundLikeReference holds the kernel to refSolver on the
// moves package's corpus, GreedyBalance's worst cases for m=2-5, six
// 12-instance mutation chains of m=10 Partition gadgets (the serving
// benchmark's online-chain shape) and random instances: each solve must
// return a bit-identical schedule, report the same incumbent sequence and
// explore no more nodes. Both kinds of solve must occur: ones that stop
// early because an incumbent met the root bound (one of them after an
// incumbent above the bound, which must not stop the search), and ones
// whose optimum lies above it, which search to the end.
func TestStopsAtRootBoundLikeReference(t *testing.T) {
	insts := movesCorpus(t, rand.New(rand.NewSource(20260101)))
	for m := 2; m <= 5; m++ {
		insts = append(insts, gen.GreedyWorstCase(m, 2, 1.0/float64(20*m*(m+1))))
		if m <= 4 {
			insts = append(insts, gen.GreedyWorstCase(m, 3, 0.5/float64(m*(m+1))))
		}
	}
	rng := rand.New(rand.NewSource(30))
	for c := 0; c < 6; c++ {
		insts = append(insts, gen.MutateChain(rng, drawGadget(t, rng, 10), 11)...)
	}
	for n := 0; n < 40; n++ {
		m := 2 + rng.Intn(5)
		insts = append(insts, gen.RandomUneven(rng, m, 1, 5, 0.05, 0.95))
	}

	var early, stepped, above, newNodes, refNodes int
	for n, inst := range insts {
		want, wantReports, wantNodes := observed(t, inst, refSchedule)
		got, gotReports, gotNodes := observed(t, inst, New().Schedule)
		if got.Steps() != want.Steps() {
			t.Fatalf("instance %d: %d steps, reference %d", n, got.Steps(), want.Steps())
		}
		for step := range want.Alloc {
			for i := range want.Alloc[step] {
				if math.Float64bits(got.Alloc[step][i]) != math.Float64bits(want.Alloc[step][i]) {
					t.Fatalf("instance %d: share (%d, %d) is %v, reference %v", n, step, i, got.Alloc[step][i], want.Alloc[step][i])
				}
			}
		}
		if len(gotReports) != len(wantReports) {
			t.Fatalf("instance %d: incumbents %v, reference %v", n, gotReports, wantReports)
		}
		for i := range gotReports {
			if gotReports[i] != wantReports[i] {
				t.Fatalf("instance %d: incumbents %v, reference %v", n, gotReports, wantReports)
			}
		}
		if gotNodes > wantNodes {
			t.Fatalf("instance %d: %d nodes, reference %d", n, gotNodes, wantNodes)
		}
		newNodes += gotNodes
		refNodes += wantNodes

		sc := getScratch(inst)
		rootLB := lowerBound(inst, sc.suffix, sc.levels[0].done, sc.levels[0].rem)
		putScratch(sc)
		switch opt := core.MustMakespan(inst, want); {
		case opt > rootLB:
			above++
		case len(wantReports) > 1:
			early++ // the search improved on the seed and met the root bound
			if len(wantReports) > 2 {
				stepped++ // through an incumbent above the bound
			}
		}
	}
	if early == 0 || stepped == 0 || above == 0 {
		t.Fatalf("%d solves stop at the root bound (%d after an incumbent above it) and %d search to an optimum above it; want all three",
			early, stepped, above)
	}
	t.Logf("%d instances: %d stop at the root bound (%d after an incumbent above it), %d have an optimum above it; %d nodes, reference %d",
		len(insts), early, stepped, above, newNodes, refNodes)
}
