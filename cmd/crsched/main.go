// Command crsched solves a CRSharing instance with a chosen solver and
// reports the schedule, its makespan, the lower bounds, the structural
// properties of Section 4 and, on request, the scheduling hypergraph of
// Section 3.2. Every solve — single or batch — is submitted to the
// internal/engine pipeline, the same admission/telemetry layer the HTTP
// service uses, so runs support timeouts, portfolio mode and per-solve
// search telemetry (nodes explored, incumbents).
//
// Usage examples:
//
//	crgen -kind figure3 -n 20 | crsched -algo greedy-balance
//	crsched -algo branch-and-bound -in instance.json -timeout 30s
//	crsched -algo portfolio -in instance.json -schedule
//	crgen ... | crsched -batch -algo greedy-balance -workers 8
//
// In batch mode instances that were never attempted because the -timeout
// deadline expired are reported as "cancelled", separately from solver
// failures; the exit code is 1 when any attempted instance failed and 3
// when the only losses were cancellations.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"crsharing/internal/core"
	"crsharing/internal/engine"
	"crsharing/internal/hypergraph"
	"crsharing/internal/render"
	"crsharing/internal/solver"
)

func main() {
	reg := solver.Default()
	algoName := flag.String("algo", "greedy-balance", "solver to run (see -list); \"portfolio\" races several")
	in := flag.String("in", "", "instance JSON file (default: stdin)")
	list := flag.Bool("list", false, "list available solvers and exit")
	timeout := flag.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
	workers := flag.Int("workers", 0, "engine concurrency budget for -batch (0 = GOMAXPROCS)")
	batch := flag.Bool("batch", false, "treat the input as a JSON array of instances and solve them in parallel")
	showSchedule := flag.Bool("schedule", false, "print the full per-step resource assignment")
	showGantt := flag.Bool("gantt", false, "print an ASCII Gantt chart of the schedule")
	showJobs := flag.Bool("jobs", false, "print the per-job start/finish table")
	showGraph := flag.Bool("graph", false, "print the scheduling hypergraph summary")
	dot := flag.Bool("dot", false, "print the scheduling hypergraph in Graphviz DOT format")
	flag.Parse()

	if *list {
		for _, name := range reg.Names() {
			fmt.Println(name)
		}
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	data, err := readInput(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	concurrency := *workers
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	eng, err := engine.New(engine.Config{
		Registry:      reg,
		DefaultSolver: "greedy-balance",
		MaxConcurrent: concurrency,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *batch {
		if err := runBatch(ctx, eng, *algoName, data, concurrency); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.Is(err, errBatchCancelled) {
				os.Exit(3)
			}
			os.Exit(1)
		}
		return
	}

	var inst core.Instance
	if err := json.Unmarshal(data, &inst); err != nil {
		fmt.Fprintf(os.Stderr, "crsched: parsing instance: %v\n", err)
		os.Exit(2)
	}
	if _, err := eng.ResolveSolver(*algoName); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The -timeout flag bounds the solve through ctx; NoDeadline keeps the
	// engine from imposing its own default on an interactive run.
	res, err := eng.Solve(ctx, engine.Request{Solver: *algoName, Instance: &inst, Timeout: engine.NoDeadline})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ev := res.Evaluation
	tel := res.Telemetry

	bounds := core.LowerBounds(&inst)
	fmt.Printf("instance: m=%d, jobs=%d, total work=%.3f\n", inst.NumProcessors(), inst.TotalJobs(), inst.TotalWork())
	fmt.Printf("algorithm: %s\n", ev.Algorithm)
	fmt.Printf("makespan: %d\n", ev.Makespan)
	fmt.Printf("lower bounds: work=%d chain=%d best=%d (%s)\n", bounds.Work, bounds.Chain, bounds.Best(), bounds.Kind())
	fmt.Printf("ratio to lower bound: %.4f\n", ev.Ratio)
	fmt.Printf("wasted resource: %.4f\n", ev.Wasted)
	fmt.Printf("properties: %s\n", ev.Properties)
	fmt.Printf("solve time: %s\n", ev.Stats.Elapsed.Round(time.Microsecond))
	if tel.Nodes > 0 || tel.Incumbents > 0 {
		fmt.Printf("search: %d nodes explored, %d incumbent improvements\n", tel.Nodes, tel.Incumbents)
	}
	for _, c := range ev.Stats.Candidates {
		switch {
		case errors.Is(c.Err, solver.ErrRaceSettled):
			fmt.Printf("  candidate %-32s stopped: race settled by %s\n", c.Solver, ev.Stats.Winner)
		case c.Err != nil:
			fmt.Printf("  candidate %-32s error: %v\n", c.Solver, c.Err)
		case c.Nodes > 0:
			fmt.Printf("  candidate %-32s makespan=%d waste=%.4f nodes=%d in %s\n",
				c.Solver, c.Makespan, c.Wasted, c.Nodes, c.Elapsed.Round(time.Microsecond))
		default:
			fmt.Printf("  candidate %-32s makespan=%d waste=%.4f in %s\n",
				c.Solver, c.Makespan, c.Wasted, c.Elapsed.Round(time.Microsecond))
		}
	}

	if *showSchedule {
		fmt.Print(ev.Schedule.String())
	}
	if *showGantt || *showJobs {
		res, err := core.Execute(&inst, ev.Schedule)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *showGantt {
			fmt.Print(render.Gantt(res, render.GanttOptions{MaxSteps: 80}))
		}
		if *showJobs {
			fmt.Print(render.JobTable(res))
		}
	}
	if *showGraph || *dot {
		g, err := hypergraph.BuildFromSchedule(&inst, ev.Schedule)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *showGraph {
			fmt.Print(g.String())
		}
		if *dot {
			fmt.Print(g.DOT())
		}
	}
}

// errBatchCancelled marks a batch in which some instances were never
// attempted because the context expired, but no attempted instance failed.
// main maps it to exit code 3, distinct from exit 1 for solver failures.
var errBatchCancelled = errors.New("cancelled before being attempted")

// runBatch parses a JSON array of instances and solves them all through the
// engine's batch fan-out, printing one summary line per instance. Instances
// the fail-fast path never handed to a solver (Outcome.Skipped) are reported
// as "cancelled", not as solver failures.
func runBatch(ctx context.Context, eng *engine.Engine, algoName string, data []byte, workers int) error {
	var insts []*core.Instance
	if err := json.Unmarshal(data, &insts); err != nil {
		return fmt.Errorf("crsched: parsing instance array: %w", err)
	}
	if _, err := eng.ResolveSolver(algoName); err != nil {
		return err
	}
	outcomes := eng.SolveEach(ctx, engine.DefaultTenant, algoName, insts, workers)
	failed, cancelled := 0, 0
	for _, out := range outcomes {
		switch {
		case out.Skipped:
			cancelled++
			fmt.Printf("#%-3d cancelled: not attempted (%v)\n", out.Index, out.Err)
		case out.Err != nil:
			failed++
			fmt.Printf("#%-3d error: %v\n", out.Index, out.Err)
		default:
			tel := out.Result.Telemetry
			stats := out.Result.Evaluation.Stats
			fmt.Printf("#%-3d makespan=%-4d waste=%.4f solver=%s nodes=%d in %s\n",
				out.Index, tel.Makespan, tel.Wasted, out.Result.Evaluation.Algorithm, tel.Nodes,
				stats.Elapsed.Round(time.Microsecond))
		}
	}
	solved := len(insts) - failed - cancelled
	fmt.Printf("batch: %d solved, %d failed, %d cancelled of %d\n", solved, failed, cancelled, len(insts))
	if failed > 0 {
		return fmt.Errorf("crsched: %d of %d instances failed (%d cancelled)", failed, len(insts), cancelled)
	}
	if cancelled > 0 {
		return fmt.Errorf("crsched: %d of %d instances %w", cancelled, len(insts), errBatchCancelled)
	}
	return nil
}

func readInput(path string) ([]byte, error) {
	var data []byte
	var err error
	if path == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, fmt.Errorf("crsched: reading instance: %w", err)
	}
	return data, nil
}
