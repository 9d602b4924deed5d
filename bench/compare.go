package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readSet reads a run set: one runRecord per line, as -out writes them.
func readSet(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var set []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		set = append(set, rec)
	}
	return set, sc.Err()
}

// valuesOf collects a metric's values over the untraced runs of one
// workload.
func valuesOf(set []runRecord, workload, metric string) []float64 {
	var vs []float64
	for _, rec := range set {
		if rec.Workload != workload || rec.Trace {
			continue
		}
		if mv, ok := rec.Metrics[metric]; ok {
			vs = append(vs, mv.Value)
		}
	}
	return vs
}

// verdict classifies one metric on one workload between run sets a
// (the reference) and b: "unresolved" when either set's own spread
// (interquartile distance over median) exceeds the metric's bound,
// "worse" when b's median is worse than a's by more than the bound,
// otherwise "ok".
func verdict(d metricDecl, a, b []float64) string {
	if spreadShare(a) > d.Bound || spreadShare(b) > d.Bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	change := (mb - ma) / ma
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return "worse"
	}
	return "ok"
}

// compareSets prints, for every end-to-end metric and workload, the two
// medians, the two spreads and the verdict, one row per workload. It
// reports whether any row is worse or unresolved.
func compareSets(w io.Writer, bm *benchmarkFile, pathA, pathB string) (bad bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-18s %6s %12s %12s %8s %8s %8s  %s\n",
		"metric", "workload", "runs", "median A", "median B", "change", "iqr A", "iqr B", "verdict")
	for _, d := range bm.EndToEnd {
		for _, wl := range bm.Workloads {
			va, vb := valuesOf(a, wl.Name, d.Name), valuesOf(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				return bad, fmt.Errorf("%s on %s: %d runs in %s, %d in %s", d.Name, wl.Name, len(va), pathA, len(vb), pathB)
			}
			v := verdict(d, va, vb)
			bad = bad || v != "ok"
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-16s %-18s %3d/%-3d %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%%  %s (bound %.0f%%)\n",
				d.Name, wl.Name, len(va), len(vb), ma, mb, 100*(mb-ma)/ma,
				100*spreadShare(va), 100*spreadShare(vb), v, 100*d.Bound)
		}
	}
	return bad, nil
}
