package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/xrand"
)

// skipIfShort skips the multi-second simulation replays under -short so
// `go test -race -short ./...` stays fast; the sub-second tests below keep
// a full Run() in short-mode coverage.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation replay; run without -short")
	}
}

// small returns a fast configuration that still exercises every subsystem.
func small(seed uint64, alg Algorithm) Config {
	cfg := DefaultConfig(seed, alg, 600)
	cfg.RequestRate = 40
	cfg.Duration = 15
	return cfg
}

func TestAlgorithmStringParse(t *testing.T) {
	for _, a := range Algorithms {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip of %v failed: %v, %v", a, got, err)
		}
	}
	if _, err := ParseAlgorithm("oracle"); err == nil {
		t.Error("unknown algorithm must fail to parse")
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Error("fallback String broken")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Seed: 1, Peers: 0, Duration: 10, RequestRate: 1},
		{Seed: 1, Peers: 10, Duration: 0, RequestRate: 1},
		{Seed: 1, Peers: 10, Duration: 10, RequestRate: -1},
		{Seed: 1, Peers: 10, Duration: 10, ChurnRate: -1},
		func() Config {
			c := DefaultConfig(1, QSA, 50)
			c.RequestRate, c.Duration = 5, 2
			c.RegistryRefresh = -1
			return c
		}(),
		func() Config {
			c := DefaultConfig(1, QSA, 50)
			c.RequestRate, c.Duration = 5, 2
			c.Registry.TTL = -4
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	skipIfShort(t)
	a, err := Run(small(11, QSA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(small(11, QSA))
	if err != nil {
		t.Fatal(err)
	}
	if a.Psi != b.Psi {
		t.Fatalf("ψ differs across identically seeded runs: %v vs %v", a.Psi, b.Psi)
	}
	if a.Requests != b.Requests {
		t.Fatalf("request stats differ: %+v vs %+v", a.Requests, b.Requests)
	}
	if a.Sessions != b.Sessions {
		t.Fatalf("session counters differ: %+v vs %+v", a.Sessions, b.Sessions)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series lengths differ")
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Fatalf("series point %d differs", i)
		}
	}
	c, err := Run(small(12, QSA))
	if err != nil {
		t.Fatal(err)
	}
	if c.Requests == a.Requests {
		t.Fatal("different seeds produced identical request stats")
	}
}

func TestStatsConsistency(t *testing.T) {
	skipIfShort(t)
	for _, alg := range Algorithms {
		res, err := Run(small(13, alg))
		if err != nil {
			t.Fatal(err)
		}
		r := res.Requests
		sum := r.DiscoveryFailed + r.ComposeFailed + r.SelectionFailed +
			r.AdmissionFailed + r.DepartureFailed + r.Succeeded
		if sum != r.Issued {
			t.Fatalf("%v: outcomes %d != issued %d (%+v)", alg, sum, r.Issued, r)
		}
		if res.Psi.Total() != r.Issued {
			t.Fatalf("%v: ψ total %d != issued %d", alg, res.Psi.Total(), r.Issued)
		}
		if res.Psi.Success != r.Succeeded {
			t.Fatalf("%v: ψ successes %d != succeeded %d", alg, res.Psi.Success, r.Succeeded)
		}
		if res.Sessions.Admitted != res.Sessions.Completed+res.Sessions.Failed {
			t.Fatalf("%v: sessions not drained: %+v", alg, res.Sessions)
		}
		if r.Issued == 0 {
			t.Fatalf("%v: no requests issued", alg)
		}
	}
}

func TestNoChurnMeansNoDepartureFailures(t *testing.T) {
	skipIfShort(t)
	res, err := Run(small(14, QSA))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests.DepartureFailed != 0 || res.Sessions.Failed != 0 {
		t.Fatalf("static grid produced departure failures: %+v", res.Requests)
	}
	if res.AliveAtEnd != 600 {
		t.Fatalf("alive = %d, want 600", res.AliveAtEnd)
	}
}

func TestOrderingQSARandomFixed(t *testing.T) {
	skipIfShort(t)
	// The headline qualitative result (Fig. 5): ψ(QSA) ≥ ψ(random) ≫
	// ψ(fixed) under load. Scaled down but with the rate high enough to
	// load the grid.
	psi := map[Algorithm]float64{}
	for _, alg := range Algorithms {
		cfg := small(15, alg)
		cfg.RequestRate = 60
		cfg.Duration = 20
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		psi[alg] = res.Psi.Value()
	}
	if !(psi[QSA] > psi[Random]) {
		t.Fatalf("ψ(QSA)=%v not above ψ(random)=%v", psi[QSA], psi[Random])
	}
	if !(psi[Random] > psi[Fixed]) {
		t.Fatalf("ψ(random)=%v not above ψ(fixed)=%v", psi[Random], psi[Fixed])
	}
	if psi[QSA]-psi[Fixed] < 0.3 {
		t.Fatalf("QSA−fixed gap only %v; expected a large client-server penalty", psi[QSA]-psi[Fixed])
	}
}

func TestChurnDegradesSuccess(t *testing.T) {
	skipIfShort(t)
	static := small(16, QSA)
	churny := small(16, QSA)
	churny.ChurnRate = 30 // 5%/min of 600 peers — heavy
	a, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(churny)
	if err != nil {
		t.Fatal(err)
	}
	if !(b.Psi.Value() < a.Psi.Value()) {
		t.Fatalf("churn did not hurt: %v vs %v", b.Psi.Value(), a.Psi.Value())
	}
	if b.Requests.DepartureFailed == 0 {
		t.Fatal("heavy churn produced no departure failures")
	}
}

func TestChurnKeepsPopulationStationary(t *testing.T) {
	skipIfShort(t)
	cfg := small(17, QSA)
	cfg.ChurnRate = 40
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AliveAtEnd < 500 || res.AliveAtEnd > 700 {
		t.Fatalf("alive at end = %d, want ≈600 (half-departures half-arrivals)", res.AliveAtEnd)
	}
}

func TestRecoveryReducesFailures(t *testing.T) {
	skipIfShort(t)
	base := small(18, QSA)
	base.ChurnRate = 30
	rec := base
	rec.EnableRecovery = true
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sessions.Recoveries == 0 {
		t.Fatal("recovery enabled but never exercised")
	}
	if !(b.Psi.Value() > a.Psi.Value()) {
		t.Fatalf("recovery did not improve ψ: %v vs %v", b.Psi.Value(), a.Psi.Value())
	}
}

func TestSeriesCoversWorkloadWindow(t *testing.T) {
	cfg := small(19, QSA)
	cfg.SampleWindow = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no samples")
	}
	last := res.Series[len(res.Series)-1]
	if last.Time > cfg.Duration+cfg.SampleWindow {
		t.Fatalf("sample at %v beyond workload window %v", last.Time, cfg.Duration)
	}
	var n uint64
	for i, p := range res.Series {
		if math.IsNaN(p.Value) || p.Value < 0 || p.Value > 1 {
			t.Fatalf("bad sample %+v", p)
		}
		if i > 0 && p.Time <= res.Series[i-1].Time {
			t.Fatal("series not strictly increasing in time")
		}
		n += p.N
	}
	if n != res.Requests.Issued {
		t.Fatalf("series accounts for %d requests, issued %d", n, res.Requests.Issued)
	}
}

func TestProbingOnlyForQSA(t *testing.T) {
	skipIfShort(t)
	q, err := Run(small(20, QSA))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(small(20, Random))
	if err != nil {
		t.Fatal(err)
	}
	if q.Probes.Probes == 0 {
		t.Fatal("QSA issued no probes")
	}
	if r.Probes.Probes != 0 {
		t.Fatal("random baseline must not probe")
	}
	if q.Selection.Informed == 0 {
		t.Fatal("QSA made no informed selections")
	}
}

func TestChordLookupsHappen(t *testing.T) {
	skipIfShort(t)
	res, err := Run(small(21, QSA))
	if err != nil {
		t.Fatal(err)
	}
	if res.Lookup.Lookups == 0 {
		t.Fatal("no DHT lookups recorded")
	}
	if res.Lookup.MeanHops() <= 0 {
		t.Fatal("zero mean hops on a 600-node ring")
	}
}

func TestTraceRecordAndReplay(t *testing.T) {
	skipIfShort(t)
	// Record a run's workload, then replay it: the replayed run must issue
	// exactly the recorded requests and (static grid, same seed) reach the
	// same outcome.
	var recorded []trace.Entry
	cfg := small(25, QSA)
	cfg.TraceSink = func(e trace.Entry) { recorded = append(recorded, e) }
	orig, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recorded)) != orig.Requests.Issued {
		t.Fatalf("recorded %d, issued %d", len(recorded), orig.Requests.Issued)
	}
	replayCfg := small(25, QSA)
	replayCfg.Replay = recorded
	rep, err := Run(replayCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests.Issued != orig.Requests.Issued {
		t.Fatalf("replay issued %d, original %d", rep.Requests.Issued, orig.Requests.Issued)
	}
	if rep.Psi.Value() != orig.Psi.Value() {
		t.Fatalf("replay ψ %v, original %v (static grid should replay exactly)", rep.Psi.Value(), orig.Psi.Value())
	}
	// Replaying under a different algorithm holds the workload constant.
	replayCfg2 := small(25, Random)
	replayCfg2.Replay = recorded
	rep2, err := Run(replayCfg2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Requests.Issued != orig.Requests.Issued {
		t.Fatalf("cross-algorithm replay issued %d", rep2.Requests.Issued)
	}
	if rep2.Psi.Value() >= rep.Psi.Value() {
		t.Fatalf("random on the same workload should trail QSA: %v vs %v",
			rep2.Psi.Value(), rep.Psi.Value())
	}
}

func TestReplayRoundTripsThroughEncoding(t *testing.T) {
	skipIfShort(t)
	var recorded []trace.Entry
	cfg := small(26, QSA)
	cfg.Duration = 5
	cfg.TraceSink = func(e trace.Entry) { recorded = append(recorded, e) }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	w := trace.NewWriter(&buf)
	for _, e := range recorded {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	back, err := trace.Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recorded) {
		t.Fatalf("decoded %d of %d", len(back), len(recorded))
	}
}

func TestZeroRequestRate(t *testing.T) {
	skipIfShort(t)
	cfg := small(22, QSA)
	cfg.RequestRate = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests.Issued != 0 {
		t.Fatalf("issued %d requests at rate 0", res.Requests.Issued)
	}
}

func TestChurnCountsDeterministicAndStationary(t *testing.T) {
	// Same seed, same sequence — the contract the netproto chaos
	// harness relies on when it reuses the simulator's churn knob.
	a, b := xrand.New(5), xrand.New(5)
	for i := 0; i < 50; i++ {
		da, aa := ChurnCounts(a, 40)
		db, ab := ChurnCounts(b, 40)
		if da != db || aa != ab {
			t.Fatalf("round %d: (%d,%d) vs (%d,%d)", i, da, aa, db, ab)
		}
	}
	// Zero or negative rates schedule nothing and consume no randomness.
	c := xrand.New(9)
	if d, arr := ChurnCounts(c, 0); d != 0 || arr != 0 {
		t.Fatalf("rate 0 produced churn (%d,%d)", d, arr)
	}
	if d, arr := ChurnCounts(c, -3); d != 0 || arr != 0 {
		t.Fatalf("negative rate produced churn (%d,%d)", d, arr)
	}
	if got := c.Uint64(); got != xrand.New(9).Uint64() {
		t.Fatal("zero-rate ChurnCounts consumed randomness")
	}
	// The half/half split keeps the population stationary in expectation.
	rng := xrand.New(1)
	var dep, arr int
	for i := 0; i < 2000; i++ {
		d, a := ChurnCounts(rng, 10)
		dep += d
		arr += a
	}
	if dep < 9000 || dep > 11000 || arr < 9000 || arr > 11000 {
		t.Fatalf("rate 10 over 2000 minutes: %d departures, %d arrivals, want ≈10000 each", dep, arr)
	}
}
