// Command pnnbench regenerates the experiments of the paper's evaluation
// (Section 7 of the paper in PAPER.md). Each experiment corresponds to one
// figure; -list prints the index, and README "Development" describes how
// the figures are regenerated.
//
// Usage:
//
//	pnnbench -list
//	pnnbench -exp fig6
//	pnnbench -exp all -samples 2000
//	pnnbench -exp fig12 -paper          # paper-scale parameters (slow)
//	pnnbench -exp fig13 -csv out.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pnn/internal/exp"
)

func main() {
	var (
		name    = flag.String("exp", "all", "experiment to run (see -list), or 'all'")
		list    = flag.Bool("list", false, "list available experiments")
		paper   = flag.Bool("paper", false, "paper-scale workloads (slow: minutes per figure)")
		tiny    = flag.Bool("tiny", false, "minimal workloads (seconds total)")
		samples = flag.Int("samples", 0, "sampled worlds per query (0 = scale default)")
		queries = flag.Int("queries", 0, "queries per setting (0 = scale default)")
		seed    = flag.Int64("seed", 1, "master random seed")
		csvPath = flag.String("csv", "", "also write results as CSV to this file")
	)
	flag.Parse()

	if *list {
		for _, r := range exp.Runners() {
			fmt.Printf("  %-9s %s\n", r.Name, r.Desc)
		}
		return
	}

	cfg := exp.DefaultConfig()
	if *paper {
		cfg = exp.PaperConfig()
	}
	if *tiny {
		cfg = exp.TinyConfig()
	}
	cfg.Seed = *seed
	if *samples > 0 {
		cfg.Samples = *samples
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}

	var runners []exp.Runner
	if *name == "all" {
		runners = exp.Runners()
	} else {
		r, ok := exp.Find(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "pnnbench: unknown experiment %q (try -list)\n", *name)
			os.Exit(2)
		}
		runners = []exp.Runner{r}
	}

	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnnbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		csvFile = f
	}

	for _, r := range runners {
		begin := time.Now()
		table, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnnbench: %s: %v\n", r.Name, err)
			os.Exit(1)
		}
		if err := table.Fprint(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pnnbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %v)\n\n", r.Name, time.Since(begin).Round(time.Millisecond))
		if csvFile != nil {
			fmt.Fprintf(csvFile, "# %s\n", table.Title)
			if err := table.WriteCSV(csvFile); err != nil {
				fmt.Fprintf(os.Stderr, "pnnbench: csv: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
