package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// declared is one metric BENCHMARK.json declares: end-to-end metrics are
// reported with -trace 0, per-layer metrics with -trace 1.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaration is the part of BENCHMARK.json the driver reads: the metric
// names and units every run must report.
type declaration struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end or no per_layer metrics", path)
	}
	return &d, nil
}

// units maps each declared metric of a list to its unit.
func units(list []declared) map[string]string {
	m := make(map[string]string, len(list))
	for _, d := range list {
		m[d.Name] = d.Unit
	}
	return m
}
