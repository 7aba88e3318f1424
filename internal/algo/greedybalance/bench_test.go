package greedybalance

import (
	"context"
	"testing"

	"crsharing/internal/gen"
)

// BenchmarkGreedyBalance schedules the 10-element Partition gadget (m=10,
// 30 unit jobs; the schedule has 5 steps).
func BenchmarkGreedyBalance(b *testing.B) {
	inst, err := gen.PartitionGadget([]int64{17, 23, 29, 31, 41, 17, 23, 29, 31, 41}, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	s := New()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Schedule(context.Background(), inst); err != nil {
			b.Fatal(err)
		}
	}
}
