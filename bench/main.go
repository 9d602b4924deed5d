// Command bench is the repository's benchmark: it drives real pnnserve
// processes over HTTP with four paced, seeded workloads, checks that
// what they answer is correct, and reports end-to-end metrics; with
// -trace 1 it additionally replays the workload in process, layer by
// layer, and reports per-layer metrics. BENCHMARK.json at the checkout
// root declares the workloads and metrics; README.md documents them.
//
// Usage (from the checkout root):
//
//	bash bench/run.sh --workload query_warm --seed 1 --seconds 10 --trace 0
//	go run -C bench . -workload churn_durable -trace 1 -out out/set.jsonl
//	go run -C bench . -compare A.jsonl B.jsonl
//	go run -C bench . -stages out/trace-query_warm.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runDeadline bounds one workload's whole run, set-ups and traced replay
// included; the driver allows 180 s.
const runDeadline = 170 * time.Second

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run: query_warm | churn_durable | subscribe_fanout | cluster_router (empty: all four)")
		seed     = flag.Int64("seed", 1, "orders the operation list and seeds its requests")
		seconds  = flag.Int("seconds", 0, "length of the measured window (0: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: also replay the workload in process and report the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", "", "append each run's record to this file (a run set for -compare)")
		compare  = flag.Bool("compare", false, "compare two run sets: bench -compare A B")
		stages   = flag.Bool("stages", false, "print the self-time tables of trace files: bench -stages bench/out/trace-*.json")
		update   = flag.Bool("update-golden", false, "rewrite bench/golden/*.seed1.json from this run instead of checking against it")
	)
	flag.Parse()
	if *stages {
		for _, path := range flag.Args() {
			if err := printStages(os.Stdout, path); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
		return 0
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	bm, err := readBenchmark(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two run-set files")
			return 2
		}
		worse, err := compareSets(os.Stdout, bm, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = bm.RunSeconds
	}
	workloads := workloadNames
	if *workload != "" {
		if _, ok := workloadRates[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
			return 2
		}
		workloads = []string{*workload}
	}

	// SIGINT/SIGTERM cancel the run; every exit path below kills and
	// reaps the children before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin, err := buildServer(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, wl := range workloads {
		cfg := runConfig{workload: wl, seed: *seed, seconds: *seconds, trace: *trace != 0, root: root, update: *update}
		rec, err := runWorkload(ctx, bm, bin, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
		}
		printMetrics(os.Stderr, rec)
		line, err := json.Marshal(rec.resultLine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Println(string(line))
		for _, f := range rec.Failures {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
		}
		code = max(code, exitCode(rec))
	}
	return code
}

// exitCode is the status one run contributes to the command's: 1 when a
// correctness check failed, so that the gate fails whatever runs the
// benchmark.
func exitCode(rec *runRecord) int {
	if rec.Correct {
		return 0
	}
	return 1
}

// newRunRecord is a finished run's record: correct exactly when no check
// reported a failure.
func newRunRecord(cfg runConfig, attempted, failed int, metrics map[string]metricValue, fails []string) *runRecord {
	return &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		resultLine: resultLine{Correct: len(fails) == 0, Attempted: attempted, Failed: failed, Metrics: metrics},
		Failures:   fails,
	}
}

// runWorkload performs one run under the hard deadline, with a scratch
// directory of its own inside the checkout, and guarantees that no
// child survives it.
func runWorkload(ctx context.Context, bm *benchmarkFile, bin string, cfg runConfig) (rec *runRecord, err error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	outDir := filepath.Join(cfg.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	conns := runtime.NumCPU()
	r := &runner{
		cfg: cfg, ctx: ctx, procs: &procs{bin: bin},
		load: newHTTPClient(conns), ctl: newHTTPClient(conns), conns: conns,
		tmp: tmp, m: make(map[string]float64),
	}
	defer func() {
		if err != nil {
			r.procs.dumpLogs(os.Stderr)
		}
		r.procs.killAll()
	}()

	begin := time.Now()
	if r.data, err = newDataset(); err != nil {
		return nil, err
	}
	r.dataFile = filepath.Join(tmp, "dataset.pnn")
	if err := os.WriteFile(r.dataFile, r.data.bytes, 0o644); err != nil {
		return nil, err
	}
	r.m["driver.datagen_s"] = time.Since(begin).Seconds()

	if err := r.run(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("run exceeded its %v deadline: %w", runDeadline, err)
		}
		return nil, err
	}
	decls, strict := bm.EndToEnd, true
	if cfg.trace {
		decls, strict = bm.PerLayer, false
	}
	metrics, err := declared(decls, r.m, strict)
	if err != nil {
		return nil, err
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("the window attempted no operation")
	}
	return newRunRecord(cfg, r.attempted, r.failed, metrics, r.fails), nil
}

func appendRecord(path string, rec *runRecord) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printMetrics lists every reported metric by name with its unit, for a
// human reading standard error; standard output carries only the
// result line.
func printMetrics(w *os.File, rec *runRecord) {
	fmt.Fprintf(w, "%s  seed %d  %d s  trace %v  attempted %d  failed %d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := rec.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", name, mv.Value, mv.Unit)
	}
}
