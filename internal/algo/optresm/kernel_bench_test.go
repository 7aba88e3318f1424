package optresm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"crsharing/internal/core"
	"crsharing/internal/gen"
)

// BenchmarkOptResKernel times whole OptResAssignment2 solves: the random
// shapes of the root BenchmarkOptResAssignment2 at m=3 and m=4, whose rounds
// are small, and an m=8 Partition gadget (Theorem 4), whose rounds expand
// hundreds of configurations with up to 2^8 finishing subsets each. The
// successor expansion and the per-round deduplication dominate all three.
func BenchmarkOptResKernel(b *testing.B) {
	gadget, err := gen.PartitionGadget([]int64{17, 23, 29, 31, 41, 17, 23, 29}, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		inst *core.Instance
	}{
		{"m=3/n=4", gen.Random(rand.New(rand.NewSource(4)), 3, 4, 0.05, 1.0)},
		{"m=4/n=3", gen.Random(rand.New(rand.NewSource(4)), 4, 3, 0.05, 1.0)},
		{fmt.Sprintf("partition-gadget/m=%d", gadget.NumProcessors()), gadget},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			s := New()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := s.Schedule(context.Background(), c.inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
