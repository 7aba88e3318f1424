// Command crsim runs the many-core bandwidth-sharing simulator on a synthetic
// workload trace and compares the built-in allocation policies, reproducing
// the system-level motivation of the paper's introduction.
//
// Usage examples:
//
//	crsim -cores 16 -workload scientific -tasks 16
//	crsim -cores 32 -workload vm -tasks 48 -policy greedy-balance
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"text/tabwriter"

	"crsharing/internal/manycore"
	"crsharing/internal/trace"
)

func main() {
	cores := flag.Int("cores", 16, "number of cores sharing the bandwidth channel")
	workload := flag.String("workload", "scientific", "workload family: scientific|vm|unit")
	tasks := flag.Int("tasks", 16, "number of tasks / VMs to generate")
	phases := flag.Int("phases", 6, "phases per task (unit workload only)")
	seed := flag.Int64("seed", 1, "trace seed")
	policyName := flag.String("policy", "", "run only this policy (default: compare all)")
	timeline := flag.Bool("timeline", false, "print an ASCII per-core speed timeline (single policy runs only)")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var (
		taskList []*manycore.Task
		err      error
	)
	switch *workload {
	case "scientific":
		taskList, err = trace.Scientific(rng, trace.DefaultScientificConfig(*tasks))
	case "vm":
		taskList, err = trace.VMs(rng, trace.DefaultVMConfig(*tasks))
	case "unit":
		taskList = trace.UnitPhases(rng, *tasks, *phases, 0.05, 1.0)
	default:
		err = fmt.Errorf("crsim: unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	w := manycore.NewWorkload(*cores)
	w.AssignRoundRobin(taskList)

	policies := manycore.Policies()
	if *policyName != "" {
		var selected []manycore.Policy
		for _, p := range policies {
			if p.Name() == *policyName {
				selected = append(selected, p)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "crsim: unknown policy %q; available:\n", *policyName)
			for _, p := range policies {
				fmt.Fprintf(os.Stderr, "  %s\n", p.Name())
			}
			os.Exit(2)
		}
		policies = selected
	}

	results := make([]*manycore.Metrics, 0, len(policies))
	var recorder *manycore.Recorder
	if *timeline && len(policies) == 1 {
		recorder = manycore.NewRecorder(200)
	}
	for _, p := range policies {
		m, err := manycore.Run(w, p, recorder)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		results = append(results, m)
	}

	fmt.Printf("workload: %s, %d tasks on %d cores, total work %.1f, critical path %.1f\n",
		*workload, w.NumTasks(), *cores, w.TotalWork(), w.MaxQueueVolume())
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tticks\tratio to LB\tbus util %\twasted\tstall core-ticks")
	for _, m := range results {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.1f\t%.1f\t%d\n",
			m.Policy, m.Ticks, m.RatioToLowerBound(), 100*m.Utilization(), m.BusWasted, m.StallTicks)
	}
	tw.Flush()
	if recorder != nil {
		fmt.Println()
		fmt.Println("per-core speed timeline ('#' full speed, '+' >= 50%, '.' > 0, '!' starved, ' ' idle):")
		fmt.Print(recorder.Timeline())
	} else if *timeline {
		fmt.Fprintln(os.Stderr, "crsim: -timeline requires selecting a single policy with -policy")
	}
}
