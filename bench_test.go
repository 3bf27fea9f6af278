package qsa

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (§4) plus the ablation studies from DESIGN.md and micro-benchmarks of
// the core algorithms.
//
// Figure benchmarks run the corresponding experiment end to end and attach
// the measured success ratios as custom metrics (psi_qsa/psi_random/
// psi_fixed, in percent), so `go test -bench=.` both times the harness and
// regenerates the paper's numbers at bench scale. Scale is selected with
// QSA_BENCH_SCALE: "bench" (default, laptop-quick), "quick", or "paper"
// (the full 10⁴-peer setup of §4.1; budget tens of minutes).

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chord"
	"repro/internal/compose"
	"repro/internal/eventsim"
	"repro/internal/experiments"
	"repro/internal/probe"
	"repro/internal/registry"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// benchScale picks the experiment scale for figure benchmarks.
func benchScale(seed uint64) experiments.Scale {
	switch os.Getenv("QSA_BENCH_SCALE") {
	case "paper":
		return experiments.PaperScale(seed)
	case "quick":
		return experiments.QuickScale(seed)
	}
	// Default: small enough for routine benchmarking, big enough that the
	// curve ordering is stable.
	return experiments.Scale{
		Seed:         seed,
		Peers:        1000,
		Fig5Rates:    []float64{10, 30, 60},
		Fig5Duration: 20,
		Fig6Rate:     30,
		Fig6Duration: 20,
		SampleWindow: 2,
		Fig7Churn:    []float64{0, 10, 20},
		Fig7Rate:     15,
		Fig7Duration: 20,
		Fig8Churn:    15,
		Fig8Rate:     15,
		Fig8Duration: 20,
	}
}

// reportCurve attaches the final point's ψ per algorithm as metrics.
func reportCurve(b *testing.B, c *experiments.Curve) {
	b.Helper()
	last := c.Points[len(c.Points)-1]
	for _, alg := range c.Algorithms {
		b.ReportMetric(100*last.Psi[alg], "psi_"+alg.String()+"_%")
	}
}

// BenchmarkFig5 regenerates Figure 5 (average ψ vs request rate, no
// churn); the reported ψ metrics are for the highest swept rate.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.Fig5(benchScale(1))
		if err != nil {
			b.Fatal(err)
		}
		reportCurve(b, c)
	}
}

// BenchmarkFig6 regenerates Figure 6 (ψ fluctuation over time, no churn);
// the reported metrics are the run-wide ψ per algorithm.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set, err := experiments.Fig6(benchScale(2))
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range set.Algorithms {
			b.ReportMetric(100*set.Overall[alg], "psi_"+alg.String()+"_%")
		}
	}
}

// BenchmarkFig7 regenerates Figure 7 (average ψ vs topological variation
// rate); the reported metrics are for the highest churn rate.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.Fig7(benchScale(3))
		if err != nil {
			b.Fatal(err)
		}
		reportCurve(b, c)
	}
}

// BenchmarkFig8 regenerates Figure 8 (ψ fluctuation under churn); the
// reported metrics are the run-wide ψ per algorithm.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		set, err := experiments.Fig8(benchScale(4))
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range set.Algorithms {
			b.ReportMetric(100*set.Overall[alg], "psi_"+alg.String()+"_%")
		}
	}
}

// benchOnePoint runs a single-algorithm simulation at the bench scale's
// Fig. 6 operating point and returns ψ.
func benchOnePoint(b *testing.B, alg sim.Algorithm, churn float64, mutate func(*sim.Config)) float64 {
	b.Helper()
	s := benchScale(5)
	cfg := sim.DefaultConfig(s.Seed, alg, s.Peers)
	cfg.RequestRate = s.Fig6Rate
	cfg.ChurnRate = churn
	cfg.Duration = s.Fig6Duration
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res.Psi.Value()
}

// BenchmarkAblationComposition (A1) isolates the composition tier: full
// QSA vs random-path + Φ selection.
func BenchmarkAblationComposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := benchOnePoint(b, sim.QSA, 0, nil)
		hybrid := benchOnePoint(b, sim.HybridRandomCompose, 0, nil)
		b.ReportMetric(100*full, "psi_qsa_%")
		b.ReportMetric(100*hybrid, "psi_randpath_phi_%")
	}
}

// BenchmarkAblationSelection (A2) isolates the peer-selection tier: full
// QSA vs QCS + random peers.
func BenchmarkAblationSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := benchOnePoint(b, sim.QSA, 0, nil)
		hybrid := benchOnePoint(b, sim.HybridRandomSelect, 0, nil)
		b.ReportMetric(100*full, "psi_qsa_%")
		b.ReportMetric(100*hybrid, "psi_qcs_randpeer_%")
	}
}

// BenchmarkAblationUptime (A3) measures the uptime filter's value under
// churn.
func BenchmarkAblationUptime(b *testing.B) {
	s := benchScale(6)
	churn := s.Fig8Churn
	for i := 0; i < b.N; i++ {
		with := benchOnePoint(b, sim.QSA, churn, nil)
		without := benchOnePoint(b, sim.QSA, churn, func(c *sim.Config) {
			c.Selection.UseUptime = false
		})
		b.ReportMetric(100*with, "psi_uptime_%")
		b.ReportMetric(100*without, "psi_no_uptime_%")
	}
}

// BenchmarkAblationProbeBudget (A4) sweeps the probing budget M.
func BenchmarkAblationProbeBudget(b *testing.B) {
	for _, m := range []int{1, 25, 100, 400} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				psi := benchOnePoint(b, sim.QSA, 0, func(c *sim.Config) {
					c.Probe.M = m
				})
				b.ReportMetric(100*psi, "psi_%")
			}
		})
	}
}

// BenchmarkAblationRecovery (A5) measures runtime session recovery under
// churn — the paper's future-work extension.
func BenchmarkAblationRecovery(b *testing.B) {
	s := benchScale(7)
	churn := s.Fig8Churn
	for i := 0; i < b.N; i++ {
		off := benchOnePoint(b, sim.QSA, churn, nil)
		on := benchOnePoint(b, sim.QSA, churn, func(c *sim.Config) {
			c.EnableRecovery = true
		})
		b.ReportMetric(100*off, "psi_no_recovery_%")
		b.ReportMetric(100*on, "psi_recovery_%")
	}
}

// BenchmarkAblationRetry (A6) quantifies the recomposition-on-failure
// extension at a saturating request rate.
func BenchmarkAblationRetry(b *testing.B) {
	s := benchScale(8)
	rate := s.Fig5Rates[len(s.Fig5Rates)-1]
	for i := 0; i < b.N; i++ {
		with := benchOnePoint(b, sim.QSA, 0, func(c *sim.Config) {
			c.RequestRate = rate
		})
		without := benchOnePoint(b, sim.QSA, 0, func(c *sim.Config) {
			c.RequestRate = rate
			c.DisableRetry = true
		})
		b.ReportMetric(100*with, "psi_retry_%")
		b.ReportMetric(100*without, "psi_single_shot_%")
	}
}

// --- micro-benchmarks of the core algorithms -----------------------------

// BenchmarkQCS measures one QCS composition over catalog-sized candidate
// sets (the O(K·V²) step of §3.2).
func BenchmarkQCS(b *testing.B) {
	cat, err := catalog.New(catalog.Default(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	// Pre-draw composable requests so the loop measures QCS only.
	var layerSets [][][]*service.Instance
	var reqs []*service.Request
	for len(layerSets) < 32 {
		req := cat.SampleRequest(rng)
		layers := make([][]*service.Instance, 0, len(req.App.Path))
		for _, name := range req.App.Path {
			layers = append(layers, cat.InstancesOf(name))
		}
		if _, err := compose.QCS(layers, req.UserQoS, compose.Config{}); err != nil {
			continue
		}
		layerSets = append(layerSets, layers)
		reqs = append(reqs, req)
	}
	cfg := compose.Config{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(layerSets)
		if _, err := compose.QCS(layerSets[j], reqs[j].UserQoS, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComposeRandom measures the random baseline composer.
func BenchmarkComposeRandom(b *testing.B) {
	cat, err := catalog.New(catalog.Default(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	req := cat.SampleRequest(rng)
	layers := make([][]*service.Instance, 0, len(req.App.Path))
	for _, name := range req.App.Path {
		layers = append(layers, cat.InstancesOf(name))
	}
	cfg := compose.Config{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compose.Random(layers, req.UserQoS, rng, cfg)
	}
}

// BenchmarkChordLookup measures one DHT lookup on a 4096-node ring and
// reports the mean hop count (the O(log N) scalability claim).
func BenchmarkChordLookup(b *testing.B) {
	r := chord.NewRing(chord.Config{})
	rng := xrand.New(3)
	var nodes []*chord.Node
	for i := 0; i < 4096; i++ {
		n, err := r.JoinRandom(rng)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	r.RefreshAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Lookup(nodes[i%len(nodes)], rng.Uint64()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Stats().MeanHops(), "hops/lookup")
}

// BenchmarkPhi measures one evaluation of the integrated selection metric.
func BenchmarkPhi(b *testing.B) {
	net, err := topology.New(topology.Default(1, 4))
	if err != nil {
		b.Fatal(err)
	}
	pm := probe.NewManager(probe.Config{}, net)
	sel, err := selection.New(selection.DefaultConfig(), pm, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	info := probe.Info{Available: []float64{500, 500}, AvailKbps: 500, Alive: true}
	r := []float64{50, 50}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sel.Phi(info, r, 100)
	}
	_ = sink
}

// BenchmarkProbeResolve measures neighbor resolution + probing of a
// 60-candidate set (one selection step's discovery cost).
func BenchmarkProbeResolve(b *testing.B) {
	net, err := topology.New(topology.Default(1, 1000))
	if err != nil {
		b.Fatal(err)
	}
	pm := probe.NewManager(probe.Config{}, net)
	cands := make([]topology.PeerID, 60)
	for i := range cands {
		cands[i] = topology.PeerID(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.Resolve(0, cands, probe.DirectRank(1), float64(i))
	}
}

// BenchmarkRegistryLookup measures one service discovery (DHT routing plus
// candidate assembly) on a 1024-peer registry.
func BenchmarkRegistryLookup(b *testing.B) {
	reg := registry.New(registry.Config{TTL: 1e12}, 1)
	for p := 0; p < 1024; p++ {
		if err := reg.AddPeer(topology.PeerID(p)); err != nil {
			b.Fatal(err)
		}
	}
	cat, err := catalog.New(catalog.Default(1))
	if err != nil {
		b.Fatal(err)
	}
	name := cat.ServiceNames()[0]
	rng := xrand.New(2)
	for _, inst := range cat.InstancesOf(name) {
		for j := 0; j < 60; j++ {
			p := topology.PeerID(rng.Intn(1024))
			if err := reg.Register(p, inst, p, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, _, err := reg.Lookup(topology.PeerID(i%1024), name, 1)
		if err != nil || len(entries) == 0 {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkSessionAdmit measures one admit+complete reservation cycle over
// a 3-hop path.
func BenchmarkSessionAdmit(b *testing.B) {
	net, err := topology.New(topology.Default(1, 100))
	if err != nil {
		b.Fatal(err)
	}
	engine := eventsim.New()
	mgr := session.NewManager(net, engine)
	cat, err := catalog.New(catalog.Default(1))
	if err != nil {
		b.Fatal(err)
	}
	name := cat.ServiceNames()[0]
	inst := cat.InstancesOf(name)[0]
	instances := []*service.Instance{inst, inst, inst}
	peers := []topology.PeerID{1, 2, 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Admit(0, instances, peers, 1); err != nil {
			b.Fatal(err)
		}
		engine.RunUntil(engine.Now() + 1)
	}
}

// BenchmarkFullRun measures one complete closed-loop run (setup +
// 10 simulated minutes of workload + drain) at 2000 peers — the end-to-end
// cost of a single experiment cell.
func BenchmarkFullRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(uint64(i+1), sim.QSA, 2000)
		cfg.RequestRate = 40
		cfg.Duration = 10
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
