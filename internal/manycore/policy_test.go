package manycore_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"crsharing/internal/algo/greedybalance"
	"crsharing/internal/gen"
	"crsharing/internal/manycore"
	"crsharing/internal/trace"
)

// crexpSeed is cmd/crexp's default seed, from which E7 and E12 draw their
// traces (E7 from crexpSeed+7, E12 from crexpSeed+12).
const crexpSeed = 20140623

type namedWorkload struct {
	name string
	w    *manycore.Workload
}

// must returns v and panics on err. It wraps the trace generators and
// conversions, which fail only on an invalid configuration or workload, so
// a panic here is a bug in the test's set-up.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func roundRobin(cores int, tasks []*manycore.Task) *manycore.Workload {
	w := manycore.NewWorkload(cores)
	w.AssignRoundRobin(tasks)
	return w
}

// experimentWorkloads rebuilds the workloads of E7 (full and quick) and E12
// at crexp's default seed, the way the experiments draw them.
func experimentWorkloads() []namedWorkload {
	var out []namedWorkload
	for _, size := range []struct{ cores, tasks, vms int }{{16, 16, 24}, {8, 8, 12}} {
		rng := rand.New(rand.NewSource(crexpSeed + 7))
		sci := must(trace.Scientific(rng, trace.DefaultScientificConfig(size.tasks)))
		vms := must(trace.VMs(rng, trace.DefaultVMConfig(size.vms)))
		out = append(out,
			namedWorkload{fmt.Sprintf("E7 scientific %d", size.cores), roundRobin(size.cores, sci)},
			namedWorkload{fmt.Sprintf("E7 vm %d", size.cores), roundRobin(size.cores, vms)})
	}
	rng := rand.New(rand.NewSource(crexpSeed + 12))
	for _, cores := range []int{4, 16, 64} {
		sci := must(trace.Scientific(rng, trace.DefaultScientificConfig(cores)))
		out = append(out, namedWorkload{fmt.Sprintf("E12 %d", cores), roundRobin(cores, sci)})
	}
	return out
}

// TestPolicyCountsPinned holds the five policies other than greedy-balance
// to the tick and stall counts, and the bus busy, wasted and idle totals,
// they had on the E7 and E12 workloads when the simulator ran its own copy
// of the progress law; stepping through core.Builder must not move them.
func TestPolicyCountsPinned(t *testing.T) {
	type pin struct {
		workload, policy   string
		ticks, stalls      int
		busy, wasted, idle float64
	}
	pins := []pin{
		{"E7 scientific 16", "equal-share", 106, 1234, 90.9708500622, 15.0291499378, 1.7763568394e-15},
		{"E7 scientific 16", "proportional-share", 98, 1353, 90.9708500622, 3.47649008486, 3.55265985291},
		{"E7 scientific 16", "water-fill", 99, 1152, 90.9708500622, 4.09394740331e-16, 8.02914993777},
		{"E7 scientific 16", "fcfs", 100, 647, 90.9708500622, 0, 9.02914993777},
		{"E7 scientific 16", "longest-queue-first", 93, 1184, 90.9708500622, 0, 2.02914993777},
		{"E7 vm 16", "equal-share", 100, 728, 80.0070093301, 19.9929906699, 7.54951656745e-15},
		{"E7 vm 16", "proportional-share", 94, 802, 80.0070093301, 9.34296099812, 4.65002967176},
		{"E7 vm 16", "water-fill", 87, 582, 80.0070093301, 1.38777878078e-17, 6.99299066988},
		{"E7 vm 16", "fcfs", 90, 613, 80.0070093301, 0, 9.99299066988},
		{"E7 vm 16", "longest-queue-first", 81, 866, 80.0070093301, 0, 0.992990669885},
		{"E7 scientific 8", "equal-share", 61, 302, 46.430009106, 14.569990894, 6.66133814775e-16},
		{"E7 scientific 8", "proportional-share", 52, 336, 46.430009106, 3.53214984522, 2.03784104882},
		{"E7 scientific 8", "water-fill", 55, 257, 46.430009106, 0, 8.56999089404},
		{"E7 scientific 8", "fcfs", 56, 152, 46.430009106, 0, 9.56999089404},
		{"E7 scientific 8", "longest-queue-first", 49, 239, 46.430009106, 0, 2.56999089404},
		{"E7 vm 8", "equal-share", 61, 179, 42.9169899384, 18.0830100616, 2.77555756156e-15},
		{"E7 vm 8", "proportional-share", 59, 157, 42.9169899384, 7.44904096752, 8.63396909406},
		{"E7 vm 8", "water-fill", 49, 112, 42.9169899384, 0, 6.08301006158},
		{"E7 vm 8", "fcfs", 50, 122, 42.9169899384, 0, 7.08301006158},
		{"E7 vm 8", "longest-queue-first", 45, 145, 42.9169899384, 0, 2.08301006158},
		{"E12 4", "equal-share", 38, 74, 24.671513212, 13.328486788, 0},
		{"E12 4", "proportional-share", 35, 61, 24.671513212, 3.33693986462, 6.9915469234},
		{"E12 4", "water-fill", 30, 28, 24.671513212, 1.11022302463e-16, 5.32848678802},
		{"E12 4", "fcfs", 34, 32, 24.671513212, 2.77555756156e-17, 9.32848678802},
		{"E12 4", "longest-queue-first", 29, 37, 24.671513212, 0, 4.32848678802},
		{"E12 16", "equal-share", 99, 1120, 86.7726893791, 12.2273106209, 5.77315972805e-15},
		{"E12 16", "proportional-share", 92, 1261, 86.7726893791, 3.3849550564, 1.84235556448},
		{"E12 16", "water-fill", 90, 1033, 86.7726893791, 2.28983498829e-16, 3.22731062088},
		{"E12 16", "fcfs", 96, 583, 86.7726893791, 0, 9.22731062088},
		{"E12 16", "longest-queue-first", 89, 1117, 86.7726893791, 5.55111512313e-17, 2.22731062088},
		{"E12 64", "equal-share", 371, 19581, 357.975990762, 13.0240092379, 5.3290705182e-14},
		{"E12 64", "proportional-share", 366, 21749, 357.975990762, 4.6669376126, 3.35707162527},
		{"E12 64", "water-fill", 362, 19333, 357.975990762, 1.50747470062e-15, 4.02400923786},
		{"E12 64", "fcfs", 368, 10784, 357.975990762, 1.07552855511e-16, 10.0240092379},
		{"E12 64", "longest-queue-first", 358, 21717, 357.975990762, 2.44596010113e-16, 0.0240092378638},
	}
	workloads := map[string]*manycore.Workload{}
	for _, nw := range experimentWorkloads() {
		workloads[nw.name] = nw.w
	}
	policies := map[string]manycore.Policy{}
	for _, p := range manycore.Policies() {
		policies[p.Name()] = p
	}
	for _, want := range pins {
		got, err := manycore.Run(workloads[want.workload], policies[want.policy], nil)
		if err != nil {
			t.Fatalf("%s %s: %v", want.workload, want.policy, err)
		}
		if got.Ticks != want.ticks || got.StallTicks != want.stalls {
			t.Errorf("%s %s: %d ticks, %d stalls; want %d and %d", want.workload, want.policy, got.Ticks, got.StallTicks, want.ticks, want.stalls)
		}
		// The pinned totals are printed to 12 significant digits.
		for _, bus := range []struct {
			name      string
			got, want float64
		}{{"busy", got.BusBusy, want.busy}, {"wasted", got.BusWasted, want.wasted}, {"idle", got.BusIdle, want.idle}} {
			if math.Abs(bus.got-bus.want) > 1e-9 {
				t.Errorf("%s %s: bus %s %.12g, want %.12g", want.workload, want.policy, bus.name, bus.got, bus.want)
			}
		}
	}
}

// TestGreedyBalanceIsPaperRule requires the simulator's greedy-balance
// policy to take exactly as many ticks as the paper's GreedyBalance
// schedule of the workload's instance has steps: on 400 unit-phase random
// instances, on the E7 and E12 workloads, and on 60 multi-task traces whose
// queues flatten into one job sequence per core.
func TestGreedyBalanceIsPaperRule(t *testing.T) {
	workloads := experimentWorkloads()
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 400; i++ {
		inst := gen.Random(rng, 2+rng.Intn(7), 1+rng.Intn(8), 0.05, 1)
		w := must(trace.FromInstance(inst))
		workloads = append(workloads, namedWorkload{fmt.Sprintf("unit %d", i), w})
	}
	for i := 0; i < 60; i++ {
		cores := 2 + rng.Intn(15)
		var tasks []*manycore.Task
		if i%2 == 0 {
			tasks = must(trace.Scientific(rng, trace.DefaultScientificConfig(cores+1+rng.Intn(2*cores))))
		} else {
			tasks = must(trace.VMs(rng, trace.DefaultVMConfig(cores+1+rng.Intn(2*cores))))
		}
		workloads = append(workloads, namedWorkload{fmt.Sprintf("multi-task %d", i), roundRobin(cores, tasks)})
	}
	for _, nw := range workloads {
		m, err := manycore.Run(nw.w, manycore.GreedyBalance{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", nw.name, err)
		}
		inst := must(nw.w.Instance())
		sched := must(greedybalance.New().Schedule(context.Background(), inst))
		if m.Ticks != sched.Steps() {
			t.Errorf("%s: simulator greedy-balance %d ticks, paper's GreedyBalance %d steps", nw.name, m.Ticks, sched.Steps())
		}
	}
}
