// Command benchmark is the repository's one performance yardstick: four
// named workloads over both front ends (the simulator and the qsapeer
// overlay), the end-to-end metrics a user of each sees, and under them a
// per-layer cost ledger. It measures every layer from outside, through
// public functions and the counters the program already exports, and it
// checks that the program's outputs are correct. It is a module of its
// own (go.mod beside this file replaces the root module by ../), so it
// builds apart from the program and `./...` at the root leaves it out. See
// README.md beside this file for the metric tables and how to run it.
//
//	taskset -c 0 go run -C benchmark . -workload wire_small -seed 1            # timed run
//	taskset -c 0 go run -C benchmark . -workload wire_small -seed 1 -trace 1   # per-layer ledger
//	taskset -c 0 go run -C benchmark . -sets 2                                 # self-consistency
//
// taskset is part of BENCHMARK.json's command: the numbers are one CPU's
// (README.md, "One CPU").
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload produces.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// notes are the human-readable rows (sample counts, ratio bases,
	// r4's numbers, check failures) printed above the result line.
	notes []string
}

func newReport() *report {
	return &report{Correct: true, Metrics: make(map[string]metricValue)}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failf records a failed correctness check; the run then reports
// correct=false and the command exits non-zero.
func (r *report) failf(format string, args ...any) {
	r.Correct = false
	r.notef("CHECK FAILED: "+format, args...)
}

// fill sets every metric of defs from values, reading 0 for a metric the
// workload's front end does not have.
func (r *report) fill(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// traceFlag takes its value as a separate argument, the driver's
// "--trace 0|1", which a boolean flag would not.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*t = traceFlag(v)
	return err
}

// env is the context every output row carries (ROADMAP's reporting
// rule): a number without its core count and commit cannot be compared.
type env struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func currentEnv(seed uint64) env {
	e := env{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Seed: seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func (e env) String() string {
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s commit=%s seed=%d",
		e.NumCPU, e.GoMaxProcs, e.Go, e.Commit, e.Seed)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", runSeconds, "measuring budget of one run, in seconds")
		sets     = flag.Int("sets", 0, "run every workload this many times and compare the sets against the bounds")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json, generated from the benchmark's own tables, and exit")
		trace    traceFlag
	)
	flag.Var(&trace, "trace", "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 {
		fatalf("-seconds %d: want at least 1", *seconds)
	}
	if *spec {
		out, err := json.MarshalIndent(specFile(), "", "  ")
		if err != nil {
			fatalf("encode spec: %v", err)
		}
		fmt.Printf("%s\n", out)
		return
	}
	if *sets > 0 {
		os.Exit(runSets(*sets, *seed, *seconds))
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, bool(trace)))
	}
	w := findWorkload(*workload)
	if w == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].Name
		}
		fatalf("unknown workload %q (want one of %s)", *workload, strings.Join(names, ", "))
	}
	rep, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, bool(trace))
	if err != nil {
		fatalf("%s: %v", w.Name, err)
	}
	printReport(w.Name, currentEnv(*seed), bool(trace), rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func runWorkload(w *workloadDef, seed uint64, budget time.Duration, trace bool) (*report, error) {
	switch {
	case w.Sim != nil && trace:
		return runSimTraced(w.Name, *w.Sim, seed)
	case w.Sim != nil:
		return runSimTimed(*w.Sim, seed, budget)
	case trace:
		return runWireTraced(w.Name, *w.Wire, seed, budget)
	default:
		return runWireTimed(*w.Wire, seed, budget)
	}
}

// printReport writes the human-readable rows and then, as the last line,
// the result object.
func printReport(workload string, e env, trace bool, rep *report) {
	mode := "timed"
	if trace {
		mode = "traced"
	}
	fmt.Printf("# %s (%s run) %s\n", workload, mode, e)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-42s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Printf("  %s\n", n)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Printf("%s\n", out)
}
