package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// Every workload of a multi-workload invocation runs in a child process
// of its own, started from this executable and waited for: peak RSS is a
// per-process high-water mark, and a fresh process is what the driver
// measures.
func runChild(workload string, seed uint64, seconds int, trace bool) (*report, []byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
	rep := newReport()
	if err := json.Unmarshal(lines[len(lines)-1], rep); err != nil {
		if runErr != nil {
			return nil, out, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, out, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return rep, out, nil // a run that failed its checks still printed its result: correct=false
}

// runAll runs every workload once and prints each one's report.
func runAll(seed uint64, seconds int, trace bool) int {
	code := 0
	for _, w := range workloads {
		rep, out, err := runChild(w.Name, seed, seconds, trace)
		os.Stdout.Write(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 2
		} else if !rep.Correct && code == 0 {
			code = 1
		}
	}
	return code
}

// setRow is one output row of -sets: a metric of a workload across the
// sets, with the context every row carries.
type setRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	// RelDiff is how much worse the worst set reads than the best, as a
	// share of the best, and AbsDiff the same distance in the metric's
	// unit. OK is RelDiff <= Bound or AbsDiff <= Floor, with every value
	// above 0: no end-to-end metric reads 0 on a working program.
	RelDiff float64 `json:"rel_diff"`
	AbsDiff float64 `json:"abs_diff"`
	Bound   float64 `json:"bound"`
	Floor   float64 `json:"floor"`
	OK      bool    `json:"ok"`
	env
}

// setsDiff is the distance between the best and the worst of values, in
// the metric's unit and as a share of the best, which is the highest of a
// higher-is-better metric and the lowest of any other. positive is false
// when a value is not above 0, which leaves nothing to take a share of.
func setsDiff(values []float64, better string) (rel, abs float64, positive bool) {
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo <= 0 {
		return 0, hi - lo, false
	}
	if better == "higher" {
		return (hi - lo) / hi, hi - lo, true
	}
	return (hi - lo) / lo, hi - lo, true
}

// setsAgree applies a metric's bound, and its absolute floor if it has
// one, to the sets' values.
func setsAgree(values []float64, d metricDef) (rel, abs float64, ok bool) {
	rel, abs, positive := setsDiff(values, d.Better)
	return rel, abs, positive && (rel <= d.Bound || abs <= d.Floor)
}

// runSets runs every workload n times on the same seed and checks that
// the sets agree within each end-to-end metric's bound: the benchmark's
// test of itself. It returns the process's exit code.
func runSets(n int, seed uint64, seconds int) int {
	e := currentEnv(seed)
	code := 0
	for _, w := range workloads {
		values := make(map[string][]float64)
		for set := 0; set < n; set++ {
			rep, out, err := runChild(w.Name, seed, seconds, false)
			if err != nil {
				os.Stdout.Write(out)
				fmt.Fprintf(os.Stderr, "benchmark: set %d: %v\n", set+1, err)
				return 2
			}
			if !rep.Correct {
				os.Stdout.Write(out)
				code = 1
			}
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], rep.Metrics[d.Name].Value)
			}
		}
		for _, d := range endToEnd {
			rel, abs, ok := setsAgree(values[d.Name], d)
			row := setRow{Workload: w.Name, Metric: d.Name, Unit: d.Unit, Values: values[d.Name],
				RelDiff: rel, AbsDiff: abs, Bound: d.Bound, Floor: d.Floor, OK: ok, env: e}
			if !row.OK {
				code = 1
			}
			line, err := json.Marshal(row)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 2
			}
			fmt.Printf("%s\n", line)
		}
	}
	return code
}
