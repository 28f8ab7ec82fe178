package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness in
// step: the same workloads, and every metric under the name and unit
// the harness reports it with.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(keys) != len(want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys %v, want %v", keys, want)
		}
	}
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, harness has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q has no driver", w.Name)
		}
	}
	sameDefs := func(kind string, declared []metricDef, harness []metricDef) {
		if len(declared) != len(harness) {
			t.Errorf("%s: %d declared, harness reports %d", kind, len(declared), len(harness))
		}
		for i := range declared {
			if i < len(harness) && declared[i] != harness[i] {
				t.Errorf("%s %d: declared %v, harness %v", kind, i, declared[i], harness[i])
			}
		}
	}
	var e2e, layer []metricDef
	setup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("%s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s")
	}
	if !setup {
		t.Error("setup_s in s is required")
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	sameDefs("end_to_end", e2e, endToEnd)
	sameDefs("per_layer", layer, perLayer)
}
