// Command crexp regenerates the paper-reproduction experiments (Figures 1-5,
// the empirical validations E1-E8 and the extensions E9-E13) and prints their
// tables. `crexp -h` lists every experiment with its title.
//
// Usage:
//
//	crexp [-quick] [-csv] [-seed N] [-timeout D] [-par N] [id ...]
//
// Without arguments every experiment runs in order; otherwise only the named
// experiments (e.g. "crexp F3 E5") run. -par runs the selected experiments on
// a worker pool (0 = one worker per core); the tables are still printed in
// order. -timeout bounds every exact-optimum oracle call inside the
// experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"

	"crsharing/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size experiments (seconds instead of minutes)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Int64("seed", 20140623, "seed for the randomised experiments")
	timeout := flag.Duration("timeout", 0, "bound every exact-oracle solve inside the experiments (0 = no limit)")
	par := flag.Int("par", 1, "run experiments on this many workers (0 = GOMAXPROCS, 1 = serial)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: crexp [-quick] [-csv] [-seed N] [-timeout D] [-par N] [id ...]\n\navailable experiments:\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-3s %s\n", e.ID, e.Title)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	var toRun []experiments.Experiment
	if flag.NArg() == 0 {
		toRun = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}

	workers := *par
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(toRun) {
		workers = len(toRun)
	}
	if workers < 1 {
		workers = 1
	}

	// Split the cores between the concurrent experiments so their exact-oracle
	// portfolios do not oversubscribe the machine.
	oracleWorkers := runtime.GOMAXPROCS(0) / workers
	if oracleWorkers < 1 {
		oracleWorkers = 1
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick, Timeout: *timeout, Workers: oracleWorkers}

	type outcome struct {
		res *experiments.Result
		err error
	}
	outcomes := make([]outcome, len(toRun))
	if workers <= 1 {
		for i, e := range toRun {
			res, err := e.Run(cfg)
			outcomes[i] = outcome{res, err}
		}
	} else {
		indices := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range indices {
					res, err := toRun[i].Run(cfg)
					outcomes[i] = outcome{res, err}
				}
			}()
		}
		for i := range toRun {
			indices <- i
		}
		close(indices)
		wg.Wait()
	}

	for i, out := range outcomes {
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", toRun[i].ID, out.err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# [%s] %s\n", out.res.ID, out.res.Title)
			fmt.Print(out.res.CSV())
		} else {
			fmt.Print(out.res.Table())
		}
		if i != len(outcomes)-1 {
			fmt.Println()
		}
	}
}
