// Command qsaload is the open-loop load generator for the serving
// plane (DESIGN §14): it fires aggregate RPCs at a running qsapeer
// overlay on a schedule that never waits for completions, so measured
// latency includes the queueing the offered rate actually causes —
// closed-loop benchmarks hide exactly that (coordinated omission).
//
// Examples:
//
//	qsaload -target 127.0.0.1:7001 -rate 200 -duration 10s
//	qsaload -target 127.0.0.1:7001 -rate 500 -schedule bursty -burst 16
//	qsaload -target 127.0.0.1:7001 -network udp -codec binary -rate 300
//	qsaload -target 127.0.0.1:7001 -rate 100 -workers 4 -out run.load.json
//
// The -mix flag shapes traffic into priority classes per the paper's
// ServiceRequest model: semicolon-separated
// name:weight:svc1+svc2:priority[:deadline[:dtol]] entries. The JSON
// report (-out) is mergeable across qsaload processes; feed one or
// more to `qsastat -load` for the fleet-wide SLO table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/load"
	"repro/internal/netproto"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("qsaload", flag.ContinueOnError)
	var (
		target   = fs.String("target", "", "serving peer address (required)")
		network  = fs.String("network", "tcp", "transport: tcp or udp")
		codec    = fs.String("codec", "", "wire codec: json or binary (default: json over tcp, binary over udp)")
		conns    = fs.Int("conns", 0, "idle pooled TCP connections per worker (0 = default 2, -1 = no pooling)")
		schedule = fs.String("schedule", "constant", "arrival schedule: constant, bursty, or diurnal")
		rate     = fs.Float64("rate", 100, "offered arrivals per second (total across workers)")
		burst    = fs.Float64("burst", 8, "bursty: mean arrivals per burst")
		depth    = fs.Float64("depth", 0.8, "diurnal: rate modulation depth in [0,1]")
		period   = fs.Duration("period", 10*time.Second, "diurnal: modulation period")
		duration = fs.Duration("duration", 10*time.Second, "run length (arrivals ≈ rate × duration)")
		requests = fs.Int("requests", 0, "exact arrival count (overrides -duration)")
		mixSpec  = fs.String("mix", "", "request mix: name:weight:svcs:prio[:deadline[:dtol]];... (default 3-class)")
		inflight = fs.Int("inflight", 256, "max in-flight requests per worker; excess arrivals drop")
		retries  = fs.Int("retries", 0, "retries per shed request, honouring the server's retry-after hint")
		workers  = fs.Int("workers", 1, "parallel open-loop workers, each with its own connection pool")
		seed     = fs.Uint64("seed", 1, "determinism seed for schedules and class assignment")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-RPC timeout")
		outFile  = fs.String("out", "", "write the mergeable JSON report here (for qsastat -load)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("qsaload: -target is required")
	}
	if *workers < 1 {
		return fmt.Errorf("qsaload: -workers %d (want >= 1)", *workers)
	}
	mix, err := load.ParseMix(*mixSpec)
	if err != nil {
		return err
	}
	total := *requests
	if total <= 0 {
		total = int(*rate * duration.Seconds())
	}
	if total <= 0 {
		return fmt.Errorf("qsaload: rate %g over %v yields no arrivals", *rate, *duration)
	}

	// Each worker runs an independent open-loop stream at rate/workers;
	// reports merge exactly, so the fleet view is the same as one fat
	// generator without a single arrival clock becoming the bottleneck.
	perWorker := total / *workers
	reports := make([]*load.Report, *workers)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		n := perWorker
		if w == *workers-1 {
			n = total - perWorker*(*workers-1)
		}
		if n <= 0 {
			continue
		}
		sched, err := load.ParseSchedule(*schedule, *rate/float64(*workers), *burst, *depth, *period, *seed+uint64(w))
		if err != nil {
			return err
		}
		client, err := netproto.NewClient(netproto.ClientConfig{
			Target:    *target,
			Network:   *network,
			Codec:     *codec,
			PoolConns: *conns,
			Timeout:   *timeout,
		})
		if err != nil {
			return err
		}
		runner, err := load.NewRunner(load.Config{
			Schedule:     sched,
			ScheduleName: *schedule,
			RateRPS:      *rate / float64(*workers),
			Mix:          mix,
			Requests:     n,
			MaxInFlight:  *inflight,
			ShedRetries:  *retries,
			Seed:         *seed + uint64(w),
		}, client)
		if err != nil {
			client.Close()
			return err
		}
		wg.Add(1)
		go func(w int, client *netproto.Client) {
			defer wg.Done()
			defer client.Close()
			reports[w] = runner.Run()
		}(w, client)
	}
	wg.Wait()
	rep := load.MergeReports(reports...)

	if *outFile != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outFile)
	}
	printSummary(out, rep)
	return nil
}

func printSummary(out io.Writer, rep *load.Report) {
	fmt.Fprintf(out, "schedule %s, offered %.0f req/s, wall %.2fs\n",
		rep.Schedule, rep.RateRPS, rep.WallSec)
	fmt.Fprintf(out, "sent %d: %d ok, %d shed, %d errors, %d dropped (%d retries)\n",
		rep.Total.Sent, rep.Total.OK, rep.Total.Shed, rep.Total.Errors,
		rep.Total.Dropped, rep.Total.Retries)
	fmt.Fprintf(out, "throughput %.1f ok/s\n", rep.Throughput())
	if rep.Total.Latency.Count > 0 {
		fmt.Fprintf(out, "latency p50 %s  p99 %s  p999 %s\n",
			fmtSec(rep.Total.Latency.Quantile(0.50)),
			fmtSec(rep.Total.Latency.Quantile(0.99)),
			fmtSec(rep.Total.Latency.Quantile(0.999)))
	}
	names := make([]string, 0, len(rep.Classes))
	for name := range rep.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := rep.Classes[name]
		fmt.Fprintf(out, "  class %-12s sent %6d  ok %6d  shed %5d  err %4d  drop %4d",
			name, cs.Sent, cs.OK, cs.Shed, cs.Errors, cs.Dropped)
		if cs.Latency.Count > 0 {
			fmt.Fprintf(out, "  p99 %s", fmtSec(cs.Latency.Quantile(0.99)))
		}
		fmt.Fprintln(out)
	}
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}
