// Package experiments contains parameterized runners that regenerate every
// figure of the QSA paper's evaluation (§4), plus the ablation studies
// DESIGN.md calls out. Each runner fans independent simulation runs out
// over a bounded worker pool — the simulator itself is single-threaded for
// determinism, so parallelism lives here.
//
// Figure index (paper §4.2):
//
//	Fig. 5 — average ψ vs request rate, 400 min, no churn
//	Fig. 6 — ψ fluctuation over 100 min at 200 req/min, 2-min samples
//	Fig. 7 — average ψ vs topological variation rate, 60 min, 100 req/min
//	Fig. 8 — ψ fluctuation over 60 min at churn 100 peers/min, 100 req/min
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"repro/internal/sim"
)

// Scale bundles every knob of the evaluation so the same harness can run
// the paper's full setup or a laptop-quick variant.
type Scale struct {
	Seed  uint64
	Peers int // paper: 10000

	Fig5Rates    []float64 // request rates swept in Fig. 5
	Fig5Duration float64   // paper: 400 min

	Fig6Rate     float64 // paper: 200 req/min
	Fig6Duration float64 // paper: 100 min
	SampleWindow float64 // paper: 2 min

	Fig7Churn    []float64 // churn rates swept in Fig. 7 (peers/min)
	Fig7Rate     float64   // paper: 100 req/min
	Fig7Duration float64   // paper: 60 min

	Fig8Churn    float64 // paper: 100 peers/min
	Fig8Rate     float64 // paper: 100 req/min
	Fig8Duration float64 // paper: 60 min

	Workers int // parallel runs; 0 = GOMAXPROCS

	// Repeats replicates every curve cell with distinct seeds and reports
	// the mean ψ (and its standard deviation) across replicas. 0 or 1 runs
	// each cell once, like the paper.
	Repeats int

	// Shards is passed through to sim.Config.Shards: > 0 runs every
	// simulation on per-request random streams, with identical results
	// for every positive value.
	Shards int
}

// PaperScale reproduces the paper's full evaluation parameters.
func PaperScale(seed uint64) Scale {
	return Scale{
		Seed:         seed,
		Peers:        10000,
		Fig5Rates:    []float64{50, 100, 200, 400, 600, 800, 1000},
		Fig5Duration: 400,
		Fig6Rate:     200,
		Fig6Duration: 100,
		SampleWindow: 2,
		Fig7Churn:    []float64{0, 25, 50, 100, 150, 200},
		Fig7Rate:     100,
		Fig7Duration: 60,
		Fig8Churn:    100,
		Fig8Rate:     100,
		Fig8Duration: 60,
	}
}

// QuickScale is a laptop-friendly variant preserving the paper's shape:
// the peer count, durations and rates shrink together so the load points
// stay comparable.
func QuickScale(seed uint64) Scale {
	return Scale{
		Seed:         seed,
		Peers:        2000,
		Fig5Rates:    []float64{10, 20, 40, 80, 120, 160, 200},
		Fig5Duration: 60,
		Fig6Rate:     40,
		Fig6Duration: 60,
		SampleWindow: 2,
		Fig7Churn:    []float64{0, 5, 10, 20, 30, 40},
		Fig7Rate:     20,
		Fig7Duration: 40,
		Fig8Churn:    20,
		Fig8Rate:     20,
		Fig8Duration: 40,
	}
}

func (s Scale) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// baseConfig builds a simulation config from the scale.
func (s Scale) baseConfig(alg sim.Algorithm, rate, churn, duration float64) sim.Config {
	cfg := sim.DefaultConfig(s.Seed, alg, s.Peers)
	cfg.RequestRate = rate
	cfg.ChurnRate = churn
	cfg.Duration = duration
	cfg.SampleWindow = s.SampleWindow
	if cfg.SampleWindow == 0 {
		cfg.SampleWindow = 2
	}
	cfg.Shards = s.Shards
	return cfg
}

// runAll executes every config on the worker pool, preserving order.
func runAll(cfgs []sim.Config, workers int) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = sim.Run(cfgs[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// CurvePoint is one x-position of a multi-algorithm curve.
type CurvePoint struct {
	X   float64
	Psi map[sim.Algorithm]float64 // mean ψ across replicas
	// PsiStd is the standard deviation across replicas (0 with one
	// replica).
	PsiStd  map[sim.Algorithm]float64
	Results map[sim.Algorithm]*sim.Result // first replica's full result
}

// Curve is a figure of ψ versus a swept parameter, one line per algorithm.
type Curve struct {
	Name       string
	XLabel     string
	Algorithms []sim.Algorithm
	Points     []CurvePoint
}

// SeriesSet is a figure of ψ versus time, one line per algorithm.
type SeriesSet struct {
	Name       string
	Algorithms []sim.Algorithm
	Series     map[sim.Algorithm][]sim.Point
	Overall    map[sim.Algorithm]float64
}

// sweep runs every (algorithm, x, replica) cell of a curve and aggregates
// replicas into mean ± stdev.
func (s Scale) sweep(name, xlabel string, algs []sim.Algorithm, xs []float64,
	mk func(alg sim.Algorithm, x float64) sim.Config) (*Curve, error) {

	reps := s.Repeats
	if reps < 1 {
		reps = 1
	}
	cfgs := make([]sim.Config, 0, len(algs)*len(xs)*reps)
	for _, x := range xs {
		for _, alg := range algs {
			for r := 0; r < reps; r++ {
				cfg := mk(alg, x)
				cfg.Seed += uint64(r) * 1_000_003 // distinct replica seeds
				cfgs = append(cfgs, cfg)
			}
		}
	}
	results, err := runAll(cfgs, s.workers())
	if err != nil {
		return nil, err
	}
	c := &Curve{Name: name, XLabel: xlabel, Algorithms: algs}
	idx := 0
	for _, x := range xs {
		pt := CurvePoint{
			X:       x,
			Psi:     make(map[sim.Algorithm]float64, len(algs)),
			PsiStd:  make(map[sim.Algorithm]float64, len(algs)),
			Results: make(map[sim.Algorithm]*sim.Result, len(algs)),
		}
		for _, alg := range algs {
			var sum, sq float64
			for r := 0; r < reps; r++ {
				res := results[idx]
				idx++
				if r == 0 {
					pt.Results[alg] = res
				}
				v := res.Psi.Value()
				sum += v
				sq += v * v
			}
			mean := sum / float64(reps)
			pt.Psi[alg] = mean
			variance := sq/float64(reps) - mean*mean
			if variance < 0 {
				variance = 0
			}
			pt.PsiStd[alg] = math.Sqrt(variance)
		}
		c.Points = append(c.Points, pt)
	}
	return c, nil
}

// fluctuation runs one config per algorithm and collects ψ time series.
func (s Scale) fluctuation(name string, algs []sim.Algorithm,
	mk func(alg sim.Algorithm) sim.Config) (*SeriesSet, error) {

	cfgs := make([]sim.Config, len(algs))
	for i, alg := range algs {
		cfgs[i] = mk(alg)
	}
	results, err := runAll(cfgs, s.workers())
	if err != nil {
		return nil, err
	}
	set := &SeriesSet{
		Name:       name,
		Algorithms: algs,
		Series:     make(map[sim.Algorithm][]sim.Point, len(algs)),
		Overall:    make(map[sim.Algorithm]float64, len(algs)),
	}
	for i, alg := range algs {
		set.Series[alg] = results[i].Series
		set.Overall[alg] = results[i].Psi.Value()
	}
	return set, nil
}

// Fig5 regenerates Figure 5: average ψ under different service aggregation
// request rates, without topological variation.
func Fig5(s Scale) (*Curve, error) {
	return s.sweep("Figure 5: average success ratio vs request rate",
		"request rate (req/min)", sim.Algorithms, s.Fig5Rates,
		func(alg sim.Algorithm, rate float64) sim.Config {
			return s.baseConfig(alg, rate, 0, s.Fig5Duration)
		})
}

// Fig6 regenerates Figure 6: ψ fluctuation over time at a fixed request
// rate, without topological variation.
func Fig6(s Scale) (*SeriesSet, error) {
	return s.fluctuation("Figure 6: success ratio fluctuation (no churn)",
		sim.Algorithms, func(alg sim.Algorithm) sim.Config {
			return s.baseConfig(alg, s.Fig6Rate, 0, s.Fig6Duration)
		})
}

// Fig7 regenerates Figure 7: average ψ under different topological
// variation rates.
func Fig7(s Scale) (*Curve, error) {
	return s.sweep("Figure 7: average success ratio vs topological variation rate",
		"topological variation rate (peers/min)", sim.Algorithms, s.Fig7Churn,
		func(alg sim.Algorithm, churn float64) sim.Config {
			return s.baseConfig(alg, s.Fig7Rate, churn, s.Fig7Duration)
		})
}

// Fig8 regenerates Figure 8: ψ fluctuation over time under churn.
func Fig8(s Scale) (*SeriesSet, error) {
	return s.fluctuation("Figure 8: success ratio fluctuation under churn",
		sim.Algorithms, func(alg sim.Algorithm) sim.Config {
			return s.baseConfig(alg, s.Fig8Rate, s.Fig8Churn, s.Fig8Duration)
		})
}

// AblationTiers isolates the contribution of each QSA tier (A1/A2): full
// QSA vs random-path+Φ vs QCS+random-peers vs fully random, at the Fig. 6
// operating point.
func AblationTiers(s Scale) (*Curve, error) {
	algs := []sim.Algorithm{sim.QSA, sim.HybridRandomCompose, sim.HybridRandomSelect, sim.Random}
	return s.sweep("Ablation A1/A2: tier contributions vs request rate",
		"request rate (req/min)", algs, s.Fig5Rates,
		func(alg sim.Algorithm, rate float64) sim.Config {
			return s.baseConfig(alg, rate, 0, s.Fig5Duration)
		})
}

// AblationUptime isolates the uptime filter (A3) under churn: QSA with and
// without the uptime ≥ duration check, across the Fig. 7 churn sweep.
func AblationUptime(s Scale) (*UptimeCurve, error) {
	var cfgs []sim.Config
	for _, churn := range s.Fig7Churn {
		with := s.baseConfig(sim.QSA, s.Fig7Rate, churn, s.Fig7Duration)
		without := with
		without.Selection.UseUptime = false
		cfgs = append(cfgs, with, without)
	}
	results, err := runAll(cfgs, s.workers())
	if err != nil {
		return nil, err
	}
	c := &UptimeCurve{}
	for i, churn := range s.Fig7Churn {
		c.Churn = append(c.Churn, churn)
		c.WithUptime = append(c.WithUptime, results[2*i].Psi.Value())
		c.WithoutUptime = append(c.WithoutUptime, results[2*i+1].Psi.Value())
	}
	return c, nil
}

// UptimeCurve is the A3 result: ψ with and without the uptime filter.
type UptimeCurve struct {
	Churn         []float64
	WithUptime    []float64
	WithoutUptime []float64
}

// AblationProbeBudget sweeps the probing budget M (A4) at the Fig. 6
// operating point, quantifying how much locally probed information QSA
// needs.
func AblationProbeBudget(s Scale, budgets []int) (*BudgetCurve, error) {
	if len(budgets) == 0 {
		budgets = []int{1, 25, 100, 400}
	}
	var cfgs []sim.Config
	for _, m := range budgets {
		cfg := s.baseConfig(sim.QSA, s.Fig6Rate, 0, s.Fig6Duration)
		cfg.Probe.M = m
		cfgs = append(cfgs, cfg)
	}
	results, err := runAll(cfgs, s.workers())
	if err != nil {
		return nil, err
	}
	c := &BudgetCurve{}
	for i, m := range budgets {
		c.M = append(c.M, m)
		c.Psi = append(c.Psi, results[i].Psi.Value())
		c.Fallbacks = append(c.Fallbacks, results[i].Selection.Fallbacks)
	}
	return c, nil
}

// BudgetCurve is the A4 result: ψ and fallback counts per probing budget.
type BudgetCurve struct {
	M         []int
	Psi       []float64
	Fallbacks []uint64
}

// AblationRecovery compares QSA with and without runtime session recovery
// (A5, the paper's future-work extension) across the Fig. 7 churn sweep.
func AblationRecovery(s Scale) (*RecoveryCurve, error) {
	var cfgs []sim.Config
	for _, churn := range s.Fig7Churn {
		off := s.baseConfig(sim.QSA, s.Fig7Rate, churn, s.Fig7Duration)
		on := off
		on.EnableRecovery = true
		cfgs = append(cfgs, off, on)
	}
	results, err := runAll(cfgs, s.workers())
	if err != nil {
		return nil, err
	}
	c := &RecoveryCurve{}
	for i, churn := range s.Fig7Churn {
		c.Churn = append(c.Churn, churn)
		c.WithoutRecovery = append(c.WithoutRecovery, results[2*i].Psi.Value())
		c.WithRecovery = append(c.WithRecovery, results[2*i+1].Psi.Value())
		c.Recoveries = append(c.Recoveries, results[2*i+1].Sessions.Recoveries)
	}
	return c, nil
}

// RecoveryCurve is the A5 result.
type RecoveryCurve struct {
	Churn           []float64
	WithoutRecovery []float64
	WithRecovery    []float64
	Recoveries      []uint64
}

// AblationRetries (A6) quantifies the recomposition-on-failure extension:
// QSA with the default retry budget vs the paper-literal single shot,
// across the Fig. 5 rate sweep.
func AblationRetries(s Scale) (*RetryCurve, error) {
	var cfgs []sim.Config
	for _, rate := range s.Fig5Rates {
		with := s.baseConfig(sim.QSA, rate, 0, s.Fig5Duration)
		without := with
		without.DisableRetry = true
		cfgs = append(cfgs, with, without)
	}
	results, err := runAll(cfgs, s.workers())
	if err != nil {
		return nil, err
	}
	c := &RetryCurve{}
	for i, rate := range s.Fig5Rates {
		c.Rate = append(c.Rate, rate)
		c.WithRetry = append(c.WithRetry, results[2*i].Psi.Value())
		c.SingleShot = append(c.SingleShot, results[2*i+1].Psi.Value())
	}
	return c, nil
}

// RetryCurve is the A6 result.
type RetryCurve struct {
	Rate       []float64
	WithRetry  []float64
	SingleShot []float64
}

// Scalability sweeps the grid size N and measures the quantities behind
// the paper's scalability claims (§3): Chord lookup hops (O(log N)),
// probing cost per request (bounded by the M cap regardless of N), and
// ψ. The request rate scales with N so the per-peer load is constant.
func Scalability(s Scale, sizes []int) (*ScalabilityCurve, error) {
	if len(sizes) == 0 {
		sizes = []int{500, 1000, 2000, 4000, 8000}
	}
	var cfgs []sim.Config
	for _, n := range sizes {
		rate := s.Fig7Rate * float64(n) / float64(s.Peers)
		cfg := s.baseConfig(sim.QSA, rate, 0, s.Fig7Duration)
		cfg.Peers = n
		cfgs = append(cfgs, cfg)
	}
	results, err := runAll(cfgs, s.workers())
	if err != nil {
		return nil, err
	}
	c := &ScalabilityCurve{}
	for i, n := range sizes {
		res := results[i]
		c.N = append(c.N, n)
		c.Psi = append(c.Psi, res.Psi.Value())
		c.ChordHops = append(c.ChordHops, res.Lookup.MeanHops())
		probes := float64(res.Probes.Probes)
		if res.Requests.Issued > 0 {
			probes /= float64(res.Requests.Issued)
		}
		c.ProbesPerRequest = append(c.ProbesPerRequest, probes)
	}
	return c, nil
}

// ScalabilityCurve is the size-sweep result.
type ScalabilityCurve struct {
	N                []int
	Psi              []float64
	ChordHops        []float64 // mean Chord hops per lookup
	ProbesPerRequest []float64
}

// WriteCurve renders a curve as an aligned text table, one row per x.
func WriteCurve(w io.Writer, c *Curve) {
	fmt.Fprintf(w, "%s\n", c.Name)
	fmt.Fprintf(w, "%-28s", c.XLabel)
	for _, alg := range c.Algorithms {
		fmt.Fprintf(w, "%14s", alg)
	}
	fmt.Fprintln(w)
	for _, pt := range c.Points {
		fmt.Fprintf(w, "%-28g", pt.X)
		for _, alg := range c.Algorithms {
			if sd := pt.PsiStd[alg]; sd > 0 {
				fmt.Fprintf(w, "%8.1f±%3.1f%%", 100*pt.Psi[alg], 100*sd)
			} else {
				fmt.Fprintf(w, "%13.1f%%", 100*pt.Psi[alg])
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteSeries renders a fluctuation figure as an aligned text table, one
// row per sampling window.
func WriteSeries(w io.Writer, set *SeriesSet) {
	fmt.Fprintf(w, "%s\n", set.Name)
	fmt.Fprintf(w, "%-12s", "time (min)")
	for _, alg := range set.Algorithms {
		fmt.Fprintf(w, "%14s", alg)
	}
	fmt.Fprintln(w)
	// Align samples by time across algorithms.
	times := map[float64]bool{}
	for _, alg := range set.Algorithms {
		for _, p := range set.Series[alg] {
			times[p.Time] = true
		}
	}
	ordered := make([]float64, 0, len(times))
	for t := range times {
		ordered = append(ordered, t)
	}
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j-1] > ordered[j]; j-- {
			ordered[j-1], ordered[j] = ordered[j], ordered[j-1]
		}
	}
	for _, t := range ordered {
		fmt.Fprintf(w, "%-12g", t)
		for _, alg := range set.Algorithms {
			v := math.NaN()
			for _, p := range set.Series[alg] {
				// t was collected verbatim from these series.
				if p.Time == t {
					v = p.Value
					break
				}
			}
			if math.IsNaN(v) {
				fmt.Fprintf(w, "%14s", "-")
			} else {
				fmt.Fprintf(w, "%13.1f%%", 100*v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "overall")
	for _, alg := range set.Algorithms {
		fmt.Fprintf(w, "%13.1f%%", 100*set.Overall[alg])
	}
	fmt.Fprintln(w)
}
