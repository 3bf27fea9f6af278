package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simWorkload is one simulator operating point. Everything else comes
// from sim.DefaultConfig (the paper's §4.1 set-up) and the seed.
type simWorkload struct {
	Peers       int
	RequestRate float64 // requests per simulated minute
	ChurnRate   float64 // peers arriving + leaving per simulated minute
	Duration    float64 // simulated minutes of workload
	Shards      int     // 0 = classic single-heap engine
}

func (w simWorkload) config(seed uint64) sim.Config {
	cfg := sim.DefaultConfig(seed, sim.QSA, w.Peers)
	// The application catalog is part of the workload, not of the seed:
	// ten applications of 2–5 hops drawn afresh would move the work per
	// request by ±25 % from one seed to the next. The seed draws the
	// population, the provider placement, the request stream and the churn.
	cfg.Catalog = catalog.Default(catalogSeed)
	cfg.RequestRate = w.RequestRate
	cfg.ChurnRate = w.ChurnRate
	cfg.Duration = w.Duration
	cfg.Shards = w.Shards
	return cfg
}

// catalogSeed fixes the application catalog of both simulator workloads.
const catalogSeed = 1

// simMinRepeats is the fewest fresh runs of a seed a timed run makes:
// two are needed to check that the seed replays identically.
// simSetupSamples is the fewest set-ups setup_s is the median of; where
// fewer runs fit in the budget, the rest are sim.New alone.
const (
	simMinRepeats   = 2
	simSetupSamples = 5
)

// simRun is one fresh sim.New + Run of a configuration.
type simRun struct {
	setup, wall time.Duration
	res         *sim.Result
	gapsMs      []float64 // wall gaps between consecutive request commits
}

// simSetup is one timed sim.New from a collected heap: a fresh run starts
// there, not in the previous repeat's garbage.
func simSetup(cfg sim.Config) (*sim.Simulator, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	s, err := sim.New(cfg)
	return s, time.Since(start), err
}

func simOnce(cfg sim.Config, sink func(trace.Entry)) (*simRun, error) {
	run := &simRun{}
	var last time.Time
	cfg.TraceSink = func(e trace.Entry) {
		now := time.Now()
		if !last.IsZero() {
			run.gapsMs = append(run.gapsMs, float64(now.Sub(last))/1e6)
		}
		last = now
		if sink != nil {
			sink(e)
		}
	}
	s, setup, err := simSetup(cfg)
	if err != nil {
		return nil, err
	}
	run.setup = setup
	start := time.Now()
	run.res = s.Run()
	run.wall = time.Since(start)
	return run, nil
}

// outcomes is the number of requests that reached a definite outcome.
func outcomes(rq sim.RequestStats) uint64 {
	return rq.DiscoveryFailed + rq.ComposeFailed + rq.SelectionFailed +
		rq.AdmissionFailed + rq.DepartureFailed + rq.Succeeded
}

// checkSimResult verifies the run's own bookkeeping: every issued
// request has exactly one outcome, and after the drain every admitted
// session has completed or failed.
func checkSimResult(rep *report, res *sim.Result) {
	rq := res.Requests
	if rq.Issued != outcomes(rq) {
		rep.failf("issued %d != sum of outcome counters %d", rq.Issued, outcomes(rq))
	}
	if rq.Issued == 0 {
		rep.failf("no request was issued")
	}
	if sc := res.Sessions; sc.Admitted != sc.Completed+sc.Failed {
		rep.failf("admitted %d != completed %d + failed %d after drain", sc.Admitted, sc.Completed, sc.Failed)
	}
	if res.Psi.Total() != rq.Issued || res.Psi.Success != rq.Succeeded {
		rep.failf("psi %v disagrees with request stats %+v", res.Psi, rq)
	}
}

// runSimTimed makes fresh runs of the workload's seed until the budget is
// spent (at least simMinRepeats). agg_per_s is read from the fastest of
// them: repeats of a seed do identical work (checked below), so they differ
// only by what the host added, and the host only ever adds.
func runSimTimed(w simWorkload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	cfg := w.config(seed)
	var runs []*simRun
	var spent time.Duration
	for {
		run, err := simOnce(cfg, nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		spent += run.setup + run.wall
		checkSimResult(rep, run.res)
		if first := runs[0].res; run.res.Requests != first.Requests {
			rep.failf("repeat %d of seed %d: request stats %+v differ from the first run's %+v",
				len(runs), seed, run.res.Requests, first.Requests)
		}
		// Stop when another run of the same length would overrun the budget.
		if next := spent / time.Duration(len(runs)); len(runs) >= simMinRepeats && spent+next > budget {
			break
		}
	}

	var setups, walls, gaps []float64
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		gaps = append(gaps, r.gapsMs...)
	}
	for len(setups) < simSetupSamples {
		s, setup, err := simSetup(cfg)
		if err != nil {
			return nil, err
		}
		// Run is what stops a sharded engine's workers; a simulator that
		// is only set up has to have them stopped here.
		if engine, ok := s.Runner().(interface{ Close() }); ok {
			engine.Close()
		}
		setups = append(setups, setup.Seconds())
	}
	res := runs[0].res
	issued := float64(res.Requests.Issued)
	wall := slices.Min(walls)
	gapT := summarize(gaps)
	p99Q, p99 := atQuantile(gaps, 0.99)
	rss, err := statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	rep.fill(endToEnd, map[string]float64{
		"setup_s":   median(setups),
		"agg_per_s": issued / wall,
		"ok_share":  res.Psi.Value(),
		"rss_mb":    rss,
	})
	// Requests have outcomes, not failures: a rejected admission is the
	// model's answer, counted in ok_share. failed counts requests the run
	// left without a definite outcome, which the checks above also catch.
	for _, r := range runs {
		rq := r.res.Requests
		rep.Attempted += int64(rq.Issued)
		rep.Failed += int64(rq.Issued) - int64(outcomes(rq))
	}
	rep.notef("%d fresh runs of seed %d: fastest run wall %.4g s, median %.4g s (all: %s); %d set-ups, median %.4g s (all: %s)",
		len(runs), seed, wall, median(walls), fmtSeconds(walls), len(setups), median(setups), fmtSeconds(setups))
	rep.notef("peer_min_per_s %.6g = %d peers x %g sim-min / %.4g s", float64(w.Peers)*w.Duration/wall, w.Peers, w.Duration, wall)
	rep.notef("commit gap ms (per-layer agg_p50_ms, agg_p99_ms): %s; p%g %.4g", gapT, 100*p99Q, p99)
	rep.notef("psi %s; fail_share (1 - psi) %.6g", ratio{float64(res.Psi.Success), float64(res.Psi.Total())}, 1-res.Psi.Value())
	rep.notef("requests %+v", res.Requests)
	return rep, nil
}

func fmtSeconds(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// statusMB reads one of the kB fields of /proc/self/status in MB.
func statusMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("%s: %w", field, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: parse %q: %w", field, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no such line in /proc/self/status", field)
}
