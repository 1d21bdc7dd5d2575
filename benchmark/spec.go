package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// workloadNames are the workloads, in the order a full run takes them.
// BENCHMARK.json declares the same names (a unit test holds the two in
// step) and every metric with its unit, direction and bound; later
// issues refer to workloads and metrics by these names. Metric names are
// written once in the code, where the value is stored, and pick holds
// what a run stored against BENCHMARK.json in both directions.
var workloadNames = []string{
	"answer_projected", "answer_direct", "cli_large",
	"serve_cold", "serve_warm", "serve_stream",
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is the part of BENCHMARK.json the program reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// metricValue is one reported value, in the shape the result line uses.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a single-workload run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick returns the declared metrics with their measured values. A
// declared metric the run did not measure, or a measured one that is not
// declared, is a bug in the benchmark and fails the run.
func pick(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but BENCHMARK.json does not declare it", name)
		}
	}
	return out, nil
}
