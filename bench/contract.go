package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDecl is one metric declaration of BENCHMARK.json. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile mirrors BENCHMARK.json, the contract between this
// program and whatever drives it.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func readBenchmark(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bm, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line of
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of an -out file: the result plus what produced
// it. A file of such lines is a run set, the input of -compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	resultLine
	Failures []string `json:"failures,omitempty"`
}

// declared selects the values of the declared metrics out of everything
// a run measured. An end-to-end metric the run did not produce is a
// defect of the benchmark, not a zero.
func declared(decls []metricDecl, measured map[string]float64, strict bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := measured[d.Name]
		if !ok && strict {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
