package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the benchmark's
// own tables in step, and both inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	want, err := json.MarshalIndent(specFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(data), want) {
		t.Errorf("BENCHMARK.json differs from `go run -C benchmark . -spec`:\n got %s\nwant %s", data, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		checkName(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
		if (w.Sim == nil) == (w.Wire == nil) {
			t.Errorf("workload %s: want exactly one front end", w.Name)
		}
		if w.Wire != nil && w.Wire.CallersPerCPU < 1 {
			t.Errorf("workload %s: a closed loop needs a caller", w.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", runSeconds)
	}
}

// TestReportCarriesEveryMetric checks that a filled report holds exactly
// the contract's metric set, each with its unit, 0 where a front end has
// no such metric.
func TestReportCarriesEveryMetric(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		rep := newReport()
		rep.fill(defs, map[string]float64{defs[0].Name: 1.5, "not_a_metric": 2})
		if len(rep.Metrics) != len(defs) {
			t.Fatalf("%d metrics in the report, want %d", len(rep.Metrics), len(defs))
		}
		for i, d := range defs {
			m, ok := rep.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("metric %s: got %+v, present=%v", d.Name, m, ok)
			}
			if want := map[bool]float64{true: 1.5, false: 0}[i == 0]; m.Value != want {
				t.Errorf("metric %s = %g, want %g", d.Name, m.Value, want)
			}
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(out, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
			t.Errorf("result object has keys %v, want exactly correct, attempted, failed, metrics", keys)
		}
	}
}
