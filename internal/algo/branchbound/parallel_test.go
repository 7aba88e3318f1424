package branchbound

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"crsharing/internal/algo/moves"
	"crsharing/internal/core"
	"crsharing/internal/gen"
	"crsharing/internal/progress"
)

// TestParallelMatchesSerial checks that the parallel solver finds the same
// optimal makespan as the serial solver, and that its schedule is feasible
// and complete. Both kernels share the move enumerator, so besides small random
// instances the sweep covers the widths where the subset enumeration is
// large: the m=10 Partition-gadget nudge chain and Partition gadgets at
// m=8–12 (random wide instances would not do: greedy meets their lower bound
// and the search stops at the root).
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20140623))
	var insts []*core.Instance
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(3)
		jobs := 2 + rng.Intn(4)
		insts = append(insts, gen.Random(rng, m, jobs, 0.05, 1.0))
	}
	insts = append(insts, nudgeChain(t, 6)...)
	for m := 8; m <= 12; m++ {
		insts = append(insts, drawGadget(t, rng, m), drawGadget(t, rng, m))
	}
	for trial, inst := range insts {
		want, err := New().Makespan(inst)
		if err != nil {
			t.Fatalf("trial %d: serial: %v", trial, err)
		}
		sched, err := NewParallel().Schedule(inst)
		if err != nil {
			t.Fatalf("trial %d: parallel: %v", trial, err)
		}
		res, err := core.Execute(inst, sched)
		if err != nil {
			t.Fatalf("trial %d: parallel produced invalid schedule: %v", trial, err)
		}
		if !res.Finished() {
			t.Fatalf("trial %d: parallel schedule incomplete", trial)
		}
		if got := res.Makespan(); got != want {
			t.Fatalf("trial %d: parallel makespan %d, serial %d\n%v", trial, got, want, inst)
		}
	}
}

// TestParallelWorkerCounts exercises degenerate pool sizes.
func TestParallelWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := gen.Random(rng, 3, 4, 0.05, 1.0)
	want, err := New().Makespan(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 16} {
		s := &ParallelScheduler{Workers: workers}
		got, err := s.Makespan(inst)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Fatalf("workers=%d: makespan %d, want %d", workers, got, want)
		}
	}
}

// hardInstance returns an adversarial instance whose exact search runs for
// many minutes on current hardware: GreedyBalance is a factor ~2-1/m off on
// it, so the incumbent bound prunes little and the search tree is enormous.
func hardInstance() *core.Instance {
	const m, blocks = 7, 3
	return gen.GreedyWorstCase(m, blocks, 1.0/float64(20*m*(m+1)))
}

// TestParallelCancellation cancels a large search mid-flight and requires a
// prompt return with the context's error.
func TestParallelCancellation(t *testing.T) {
	inst := hardInstance()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := NewParallel().ScheduleContext(ctx, inst)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parallel solver did not return promptly after cancellation")
	}
}

// TestParallelNodeLimit checks that the shared node budget is enforced.
func TestParallelNodeLimit(t *testing.T) {
	s := &ParallelScheduler{MaxNodes: 1000}
	if _, err := s.Schedule(hardInstance()); err == nil {
		t.Fatal("expected node-limit error, got nil")
	}
}

// TestSerialContextCancellation covers the context plumbing of the serial
// solver as well.
func TestSerialContextCancellation(t *testing.T) {
	inst := hardInstance()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := New().ScheduleContext(ctx, inst)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("serial solver took %v to honour the deadline", elapsed)
	}
}

// TestParallelCountsSeededTasks checks that the frontier seeding reports its
// task copies in kernel_allocs, one event per seeded task like a worker
// handoff. With two workers the seeding stops after the root of the m=10
// Partition gadget, whose every successor becomes a task, so the solve must
// report at least one allocation event per root successor.
func TestParallelCountsSeededTasks(t *testing.T) {
	inst := ChainBase(t)
	sc := getScratch(inst)
	buf := sc.level(0)
	moves.Expand(inst, &sc.expand, sc.rootDone, sc.rootRem, buf, &sc.allocs)
	seeded := int64(buf.Len())
	putScratch(sc)

	var ctr progress.Counters
	ctx := progress.WithCounters(context.Background(), &ctr)
	if _, err := (&ParallelScheduler{Workers: 2}).ScheduleContext(ctx, inst); err != nil {
		t.Fatal(err)
	}
	if got := ctr.Allocs.Load(); got < seeded {
		t.Fatalf("parallel solve reports %d kernel allocation events, fewer than the %d tasks it seeded", got, seeded)
	}
}
