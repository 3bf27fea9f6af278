// Command qsasim runs one QSA simulation and prints a summary: the overall
// service aggregation request success ratio ψ, the per-stage failure
// breakdown, probing/DHT statistics, and the ψ-over-time series.
//
// Examples:
//
//	qsasim -alg qsa -peers 10000 -rate 200 -duration 100
//	qsasim -alg random -rate 100 -churn 100 -duration 60
//	qsasim -alg qsa -churn 100 -recovery
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		seed     = flag.Uint64("seed", 1, "simulation seed (runs replay identically per seed)")
		algName  = flag.String("alg", "qsa", "algorithm: qsa, random, fixed, randpath+phi, qcs+randpeer")
		peers    = flag.Int("peers", 10000, "number of peers (paper: 10000)")
		rate     = flag.Float64("rate", 100, "request rate in requests/min")
		churn    = flag.Float64("churn", 0, "topological variation rate in peers/min")
		duration = flag.Float64("duration", 60, "workload duration in simulated minutes")
		window   = flag.Float64("window", 2, "ψ sampling window in minutes")
		recovery = flag.Bool("recovery", false, "enable runtime session recovery (paper future work)")
		series   = flag.Bool("series", true, "print the ψ-over-time series")
		traceOut = flag.String("trace-out", "", "record the workload to this JSONL trace file")
		traceIn  = flag.String("trace-in", "", "replay the workload from this JSONL trace file")
		teleOut  = flag.String("telemetry", "", "write the JSONL decision-trace stream to this file (qsastat reads it)")
		spanFrac = flag.Float64("trace-sample", 0, "fraction of requests to trace with causal spans in the telemetry stream (deterministic per seed; qsastat -trace reads them; requires -telemetry)")
		metrics  = flag.Bool("metrics", false, "print the runtime metrics snapshot after the run")
		metOut   = flag.String("metrics-out", "", "write the metrics snapshot as JSON to this file (qsastat -metrics reads it)")
		shards   = flag.Int("shards", 0, "event lanes for the sharded engine (0 = classic single-heap engine; results are identical for every value > 0)")
		workers  = flag.Int("shard-workers", 0, "prepare worker goroutines (0 = min(shards, GOMAXPROCS), 1 = inline serial shadow)")
		lookhd   = flag.Float64("shard-lookahead", 0, "conservative barrier window in simulated minutes (0 = default)")
	)
	flag.Parse()

	alg, err := sim.ParseAlgorithm(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := sim.DefaultConfig(*seed, alg, *peers)
	cfg.RequestRate = *rate
	cfg.ChurnRate = *churn
	cfg.Duration = *duration
	cfg.SampleWindow = *window
	cfg.EnableRecovery = *recovery
	cfg.Shards = *shards
	cfg.ShardWorkers = *workers
	cfg.ShardLookahead = *lookhd

	if *spanFrac != 0 && *teleOut == "" {
		fmt.Fprintln(os.Stderr, "-trace-sample requires -telemetry (spans ride the decision-trace stream)")
		os.Exit(2)
	}
	cfg.SpanSample = *spanFrac
	var teleFile *os.File
	if *teleOut != "" {
		f, err := os.Create(*teleOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		teleFile = f
		cfg.TelemetryOut = f
	}
	var reg *obs.Registry
	if *metrics || *metOut != "" {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}

	var tw *trace.Writer
	var traceErr error
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		tw = trace.NewWriter(f)
		// I/O errors are sticky in the buffered writer and resurface at
		// Flush; keep the first validation error too.
		cfg.TraceSink = func(e trace.Entry) {
			if err := tw.Write(e); err != nil && traceErr == nil {
				traceErr = err
			}
		}
	}
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		entries, err := trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Replay = entries
		fmt.Printf("replaying %d recorded requests from %s\n", len(entries), *traceIn)
	}

	res, err := sim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if teleFile != nil {
		if res.TelemetryErr != nil {
			fmt.Fprintln(os.Stderr, res.TelemetryErr)
			os.Exit(1)
		}
		fmt.Printf("wrote %d telemetry events to %s\n", res.TelemetryEvents, *teleOut)
	}
	if tw != nil {
		if traceErr == nil {
			traceErr = tw.Flush()
		}
		if traceErr != nil {
			fmt.Fprintln(os.Stderr, traceErr)
			os.Exit(1)
		}
		fmt.Printf("recorded %d requests to %s\n", tw.Count(), *traceOut)
	}

	fmt.Printf("QSA simulator — algorithm=%v peers=%d rate=%g req/min churn=%g peers/min duration=%g min seed=%d\n",
		alg, *peers, *rate, *churn, *duration, *seed)
	fmt.Printf("\nsuccess ratio ψ: %s\n", res.Psi)
	r := res.Requests
	fmt.Printf("\nrequest breakdown:\n")
	fmt.Printf("  issued             %8d\n", r.Issued)
	fmt.Printf("  succeeded          %8d\n", r.Succeeded)
	fmt.Printf("  discovery failed   %8d\n", r.DiscoveryFailed)
	fmt.Printf("  compose failed     %8d\n", r.ComposeFailed)
	fmt.Printf("  selection failed   %8d\n", r.SelectionFailed)
	fmt.Printf("  admission failed   %8d\n", r.AdmissionFailed)
	fmt.Printf("  departure failed   %8d\n", r.DepartureFailed)
	s := res.Sessions
	fmt.Printf("\nsessions: admitted=%d completed=%d failed=%d recoveries=%d\n",
		s.Admitted, s.Completed, s.Failed, s.Recoveries)
	fmt.Printf("probing:  probes=%d cache-hits=%d evictions=%d rejected=%d\n",
		res.Probes.Probes, res.Probes.CacheHits, res.Probes.Evictions, res.Probes.Rejected)
	if *duration > 0 && *peers > 0 {
		// The paper bounds probing overhead by M/N (1% at M=100, N=10⁴);
		// demand-driven probing usually stays far below that bound.
		fmt.Printf("          overhead: %.2f probes/peer/min (paper bound M/N·refresh)\n",
			float64(res.Probes.Probes)/(*duration)/float64(*peers))
	}
	fmt.Printf("selector: informed=%d fallbacks=%d failures=%d\n",
		res.Selection.Informed, res.Selection.Fallbacks, res.Selection.Failures)
	fmt.Printf("lookup:   lookups=%d hops=%d mean-hops=%.2f direct-writes=%d\n",
		res.Lookup.Lookups, res.Lookup.TotalHops, res.Lookup.MeanHops(), res.Lookup.DirectWrites)
	fmt.Printf("chord:    owner-walk-hops=%d dead-finger-skips=%d fallbacks=%d\n",
		res.Ring.OwnerWalkHops, res.Ring.DeadFingerSkips, res.Ring.Fallbacks)
	fmt.Printf("peers alive at end: %d\n", res.AliveAtEnd)

	if reg != nil {
		snap := reg.Snapshot()
		if *metrics {
			fmt.Printf("\nruntime metrics:\n")
			if err := snap.WriteText(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if *metOut != "" {
			f, err := os.Create(*metOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}

	if *series {
		fmt.Printf("\nψ over time (window %g min):\n", *window)
		fmt.Printf("  %-12s%-10s%s\n", "time (min)", "ψ", "requests")
		for _, p := range res.Series {
			fmt.Printf("  %-12g%-10.3f%d\n", p.Time, p.Value, p.N)
		}
	}
}
