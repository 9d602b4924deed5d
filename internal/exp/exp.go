// Package exp regenerates every experiment of the paper's evaluation
// (Section 7): one runner per figure, each producing a Table whose rows
// mirror the series the paper plots. Absolute numbers differ from the
// paper's C++/i7-870 testbed; the shapes (who wins, growth directions,
// crossovers) are what the runners — and the assertions in exp_test.go —
// reproduce.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// Config scales the experiments. The zero value is not usable; call
// DefaultConfig (seconds per figure) or PaperConfig (paper-scale
// parameters, minutes per figure).
type Config struct {
	Paper   bool  // use paper-scale workloads
	Tiny    bool  // use minimal workloads (tests and benchmarks)
	Samples int   // sampled worlds per query (paper: 10 000)
	Queries int   // queries averaged per setting
	Seed    int64 // master seed; every run is reproducible
}

// TinyConfig returns a minimal configuration for tests and benchmarks:
// smallest workloads that still exhibit the figures' shapes.
func TinyConfig() Config {
	return Config{Tiny: true, Samples: 400, Queries: 2, Seed: 1}
}

// sweep3 picks the three sweep values for a figure by scale.
func (c Config) sweep3(tiny, def, paper [3]int) [3]int {
	switch {
	case c.Paper:
		return paper
	case c.Tiny:
		return tiny
	default:
		return def
	}
}

// pick chooses a single int parameter by scale.
func (c Config) pick(tiny, def, paper int) int {
	switch {
	case c.Paper:
		return paper
	case c.Tiny:
		return tiny
	default:
		return def
	}
}

// DefaultConfig returns the scaled-down configuration used by `go test`
// and the benchmarks: roughly 5-10× smaller than the paper's defaults.
func DefaultConfig() Config {
	return Config{Samples: 2000, Queries: 3, Seed: 1}
}

// PaperConfig restores the paper's workload sizes (|S|=100k, |D|=10k,
// 10k samples). Figures take minutes each at this scale.
func PaperConfig() Config {
	return Config{Paper: true, Samples: 10000, Queries: 5, Seed: 1}
}

// Every sampled figure answers through shard.Snap.RunShared — the call a
// pnnserve request ends in — over a one-shard set, so the figures measure
// the draw policy the service runs.

// prepared indexes objs in a one-shard set drawing `samples` worlds per
// query, applies setup (when set), and adapts every model up front. It
// returns the snapshot and the adaptation time in ms: the TS column,
// which "can be performed once and used for all queries" (Section 7.1).
func prepared(sp *space.Space, objs []*uncertain.Object, samples int, setup func(*shard.Set)) (*shard.Snap, float64, error) {
	set, err := shard.New(sp, objs, samples, 1)
	if err != nil {
		return nil, 0, err
	}
	if setup != nil {
		setup(set)
	}
	begin := time.Now()
	if err := set.PrepareAll(); err != nil {
		return nil, 0, err
	}
	return set.Snapshot(), time.Since(begin).Seconds() * 1000, nil
}

// answer runs one query of semantics op at threshold tau over snap.
func answer(snap *shard.Snap, spec shard.GroupSpec, op shard.GroupOp, tau float64) (shard.GroupAnswer, query.Stats, error) {
	ans, st, err := snap.RunShared(spec, []shard.GroupItem{{Op: op, Tau: tau}})
	if err != nil {
		return shard.GroupAnswer{}, st, err
	}
	return ans[0], st, ans[0].Err
}

// Table is one experiment's output: a titled header plus formatted rows.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Note); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	return tw.Flush()
}

// WriteCSV emits the table as CSV (header first).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Cell looks a value up by header name for test assertions; it panics on
// unknown columns (a test bug, not a data condition).
func (t *Table) Cell(row int, col string) string {
	for i, h := range t.Header {
		if h == col {
			return t.Rows[row][i]
		}
	}
	panic("exp: unknown column " + col)
}

// Runner is a named experiment.
type Runner struct {
	Name string
	Desc string
	Run  func(Config) (*Table, error)
}

// Runners lists every reproducible experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{"example1", "Figure 1 worked example: exact P∃NN/P∀NN/PCNN", Example1},
		{"fig6", "CPU time and candidate counts vs number of states N", Fig6},
		{"fig7", "CPU time and candidate counts vs branching factor b", Fig7},
		{"fig8", "CPU time and candidate counts vs database size |D|", Fig8},
		{"fig9", "taxi data: CPU time and candidate counts vs |D|", Fig9},
		{"fig10", "sample attempts per valid trajectory vs #observations", Fig10},
		{"fig11", "estimation bias: sampling (SA) vs snapshot (SS) against reference", Fig11},
		{"fig12", "model adaptation effectiveness: mean error of NO/F/FB/U/FBU", Fig12},
		{"fig13", "PCNN: runtime and result cardinality vs |D|", Fig13},
		{"fig14", "PCNN: runtime and result cardinality vs tau", Fig14},
		{"ablation", "design-choice ablations: filter step, sample budget, parallelism", Ablation},
	}
}

// Find returns the runner with the given name.
func Find(name string) (Runner, bool) {
	for _, r := range Runners() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

func ms(d float64) string { return fmt.Sprintf("%.1f", d) }

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
