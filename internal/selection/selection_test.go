package selection

import (
	"math"
	"testing"

	"repro/internal/probe"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/xrand"
)

func inst(r, b float64) *service.Instance {
	return &service.Instance{
		ID:      "svc#0",
		Service: "svc",
		Qin:     qos.MustVector(qos.Sym("format", "M")),
		Qout:    qos.MustVector(qos.Sym("format", "A")),
		R:       resource.Vec2(r, r),
		OutKbps: b,
	}
}

type fixture struct {
	net    *topology.Network
	probes *probe.Manager
	sel    *Selector
}

func newFixture(t *testing.T, peers int, cfg Config) *fixture {
	t.Helper()
	net, err := topology.New(topology.Default(1, peers))
	if err != nil {
		t.Fatal(err)
	}
	pm := probe.NewManager(probe.Config{}, net)
	if len(cfg.Weights) == 0 {
		cfg = DefaultConfig()
	}
	sel, err := New(cfg, pm, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{net: net, probes: pm, sel: sel}
}

func ids(xs ...int) []topology.PeerID {
	out := make([]topology.PeerID, len(xs))
	for i, x := range xs {
		out[i] = topology.PeerID(x)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Weights: []float64{0.9, 0.9}}).Validate(); err == nil {
		t.Fatal("weights not summing to 1 must fail eq. 5")
	}
	if err := (Config{Weights: []float64{1.5, -0.5}}).Validate(); err == nil {
		t.Fatal("negative weight must fail")
	}
	pm := probe.NewManager(probe.Config{}, nil)
	if _, err := New(Config{Weights: []float64{2}}, pm, xrand.New(1)); err == nil {
		t.Fatal("New must reject invalid config")
	}
}

func TestPhiFormula(t *testing.T) {
	f := newFixture(t, 3, Config{Weights: []float64{0.25, 0.25, 0.5}, UseUptime: true})
	info := probe.Info{Available: resource.Vec2(100, 200), AvailKbps: 1000, Alive: true}
	got := f.sel.Phi(info, []float64{10, 10}, 100)
	want := 0.25*100/10 + 0.25*200/10 + 0.5*1000/100
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Phi = %v, want %v", got, want)
	}
	// Zero requirements contribute nothing rather than dividing by zero.
	got = f.sel.Phi(info, []float64{0, 10}, 0)
	want = 0.25 * 200 / 10
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Phi with zero reqs = %v, want %v", got, want)
	}
}

func TestPhiValueStandalone(t *testing.T) {
	// Network-only weights: a single-entry weight vector prices only the
	// network term.
	got := PhiValue([]float64{1}, nil, 500, nil, 100)
	if got != 5 {
		t.Fatalf("network-only Φ = %v, want 5", got)
	}
	// Zero network requirement contributes nothing.
	if got := PhiValue([]float64{1}, nil, 500, nil, 0); got != 0 {
		t.Fatalf("Φ with zero bNet = %v", got)
	}
	// Mismatched avail/req lengths must not panic; extra dims ignored.
	got = PhiValue([]float64{0.5, 0.5}, []float64{10}, 0, []float64{5, 5}, 0)
	if got != 0.5*10/5 {
		t.Fatalf("Φ with short avail = %v", got)
	}
	if got := PhiValue(nil, []float64{1}, 1, []float64{1}, 1); got != 0 {
		t.Fatalf("Φ with no weights = %v", got)
	}
}

func TestSelectNextPicksMaxPhi(t *testing.T) {
	f := newFixture(t, 10, Config{})
	// Load peer candidates differently: the least loaded wins.
	heavy := f.net.MustPeer(1)
	heavy.Ledger.Reserve(heavy.Capacity.Scale(0.9))
	light := f.net.MustPeer(2)

	in := inst(10, 10)
	got, ok := f.sel.SelectNext(0, in, ids(1, 2), 5, 100, probe.DirectRank(1))
	if !ok {
		t.Fatal("selection failed")
	}
	// Both peers qualify, but the lightly loaded one has higher Φ
	// (bandwidth classes may differ; resource gap of 90% dominates with a
	// 1/3 bandwidth weight only if availability ratio gap is big — verify
	// via Phi directly).
	infoH, _ := f.probes.Fresh(0, 1, 100)
	infoL, _ := f.probes.Fresh(0, 2, 100)
	wantBest := topology.PeerID(1)
	if f.sel.Phi(infoL, in.R, in.OutKbps) > f.sel.Phi(infoH, in.R, in.OutKbps) {
		wantBest = 2
	}
	if got != wantBest {
		t.Fatalf("selected %d, Φ-max is %d", got, wantBest)
	}
	_ = light
	if f.sel.Stats().Informed != 1 {
		t.Fatalf("stats = %+v", f.sel.Stats())
	}
}

func TestUptimeFilter(t *testing.T) {
	f := newFixture(t, 10, Config{})
	// Peer 1 joined at t=0; a fresh peer joins at t=95.
	fresh, _ := f.net.Join(95)
	in := inst(10, 10)
	// Session of 20 min at t=100: fresh peer has uptime 5 < 20 and must be
	// filtered; peer 1 has uptime 100.
	got, ok := f.sel.SelectNext(0, in, []topology.PeerID{1, fresh.ID}, 20, 100, probe.DirectRank(1))
	if !ok || got != 1 {
		t.Fatalf("selected %v, want the long-uptime peer 1", got)
	}
	// Without the uptime filter the fresh peer is eligible again.
	cfgNoUp := DefaultConfig()
	cfgNoUp.UseUptime = false
	sel2, _ := New(cfgNoUp, f.probes, xrand.New(3))
	// Drain peer 1 so the fresh peer clearly wins on Φ.
	p1 := f.net.MustPeer(1)
	p1.Ledger.Reserve(p1.Capacity.Scale(0.99))
	got, ok = sel2.SelectNext(0, in, []topology.PeerID{1, fresh.ID}, 20, 102, probe.DirectRank(1))
	if !ok || got != fresh.ID {
		t.Fatalf("without uptime filter selected %v, want fresh peer %v", got, fresh.ID)
	}
}

func TestDeadCandidatesFiltered(t *testing.T) {
	f := newFixture(t, 10, Config{})
	f.net.Depart(1, 50)
	in := inst(10, 10)
	got, ok := f.sel.SelectNext(0, in, ids(1, 2), 5, 100, probe.DirectRank(1))
	if !ok || got != 2 {
		t.Fatalf("selected %v, want 2 (1 departed)", got)
	}
}

func TestFeasibilityFilter(t *testing.T) {
	f := newFixture(t, 10, Config{})
	// Overload peer 1 beyond the requirement.
	p1 := f.net.MustPeer(1)
	p1.Ledger.Reserve(p1.Capacity.Sub(resource.Vec2(5, 5)))
	in := inst(10, 10) // needs 10, peer 1 has 5
	got, ok := f.sel.SelectNext(0, in, ids(1, 2), 5, 100, probe.DirectRank(1))
	if !ok || got != 2 {
		t.Fatalf("selected %v, want 2 (1 infeasible)", got)
	}
}

func TestRandomFallbackWhenUninformed(t *testing.T) {
	// M=1: the table can hold a single neighbor, so with two candidates
	// one stays unknown. Make the probed one infeasible: the fallback must
	// pick the unknown one.
	net, _ := topology.New(topology.Default(1, 10))
	pm := probe.NewManager(probe.Config{M: 1}, net)
	sel, _ := New(DefaultConfig(), pm, xrand.New(4))
	p1 := net.MustPeer(1)
	p1.Ledger.Reserve(p1.Capacity) // fully loaded
	in := inst(10, 10)
	got, ok := sel.SelectNext(0, in, ids(1, 2), 5, 100, probe.DirectRank(1))
	if !ok {
		t.Fatal("selection failed despite unknown candidate")
	}
	if got != 2 {
		t.Fatalf("fallback selected %v, want the unprobed peer 2", got)
	}
	if sel.Stats().Fallbacks != 1 {
		t.Fatalf("stats = %+v", sel.Stats())
	}
}

func TestSelectionFailure(t *testing.T) {
	f := newFixture(t, 5, Config{})
	f.net.Depart(1, 0)
	f.net.Depart(2, 0)
	in := inst(10, 10)
	_, ok := f.sel.SelectNext(0, in, ids(1, 2), 5, 100, probe.DirectRank(1))
	if ok {
		t.Fatal("selection must fail when every candidate is dead and probed")
	}
	if f.sel.Stats().Failures != 1 {
		t.Fatalf("stats = %+v", f.sel.Stats())
	}
}

func TestSelfExcluded(t *testing.T) {
	f := newFixture(t, 5, Config{})
	in := inst(10, 10)
	got, ok := f.sel.SelectNext(3, in, ids(3, 4), 5, 100, probe.DirectRank(1))
	if !ok || got != 4 {
		t.Fatalf("selected %v, the selecting peer itself must be excluded", got)
	}
}

func TestSelectPathReverseOrder(t *testing.T) {
	f := newFixture(t, 20, Config{})
	instances := []*service.Instance{inst(5, 10), inst(5, 10), inst(5, 10)}
	providers := [][]topology.PeerID{ids(1, 2), ids(3, 4), ids(5, 6)}
	chosen, ok := f.sel.SelectPath(0, instances, providers, 5, 100)
	if !ok {
		t.Fatal("path selection failed")
	}
	if len(chosen) != 3 {
		t.Fatalf("chosen = %v", chosen)
	}
	for k, c := range chosen {
		found := false
		for _, p := range providers[k] {
			if p == c {
				found = true
			}
		}
		if !found {
			t.Fatalf("hop %d selected non-candidate %v", k, c)
		}
	}
	// The user resolved every hop's candidates as direct neighbors.
	if f.probes.NeighborCount(0) < 4 {
		t.Fatalf("user table has %d neighbors, expected all hop candidates", f.probes.NeighborCount(0))
	}
	// The hop-2 selector (chosen[2]) learned about hop-1 candidates.
	if _, ok := f.probes.Fresh(chosen[2], chosen[1], 100); !ok {
		t.Fatal("selecting peer did not resolve its next-hop candidates")
	}
}

func TestSelectPathDegenerate(t *testing.T) {
	f := newFixture(t, 5, Config{})
	if _, ok := f.sel.SelectPath(0, nil, nil, 5, 0); ok {
		t.Fatal("empty path must fail")
	}
	in := []*service.Instance{inst(1, 1)}
	if _, ok := f.sel.SelectPath(0, in, nil, 5, 0); ok {
		t.Fatal("provider/instance mismatch must fail")
	}
}

func TestRandomSelector(t *testing.T) {
	r := NewRandom(xrand.New(5))
	instances := []*service.Instance{inst(1, 1), inst(1, 1)}
	providers := [][]topology.PeerID{ids(1, 2, 3), ids(4, 5)}
	seen := map[topology.PeerID]bool{}
	for i := 0; i < 200; i++ {
		chosen, ok := r.SelectPath(0, instances, providers, 5, 0)
		if !ok {
			t.Fatal("random selection failed")
		}
		seen[chosen[0]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("random selector not uniform over candidates: %v", seen)
	}
	if _, ok := r.SelectPath(0, instances, [][]topology.PeerID{ids(1), nil}, 5, 0); ok {
		t.Fatal("empty provider set must fail")
	}
	if _, ok := r.SelectPath(0, nil, nil, 5, 0); ok {
		t.Fatal("empty path must fail")
	}
}

func TestFixedSelector(t *testing.T) {
	f := NewFixed()
	instances := []*service.Instance{inst(1, 1), inst(1, 1)}
	providers := [][]topology.PeerID{ids(9, 3, 7), ids(5, 4)}
	chosen, ok := f.SelectPath(0, instances, providers, 5, 0)
	if !ok {
		t.Fatal("fixed selection failed")
	}
	if chosen[0] != 3 || chosen[1] != 4 {
		t.Fatalf("fixed chose %v, want dedicated peers [3 4]", chosen)
	}
	// Always the same.
	again, _ := f.SelectPath(0, instances, providers, 5, 0)
	if again[0] != chosen[0] || again[1] != chosen[1] {
		t.Fatal("fixed selector must be deterministic")
	}
	if _, ok := f.SelectPath(0, instances, [][]topology.PeerID{ids(1), nil}, 5, 0); ok {
		t.Fatal("empty provider set must fail")
	}
	if _, ok := f.SelectPath(0, nil, nil, 5, 0); ok {
		t.Fatal("empty path must fail")
	}
}

func TestLoadBalancePreference(t *testing.T) {
	// Statistical: across many selections with equal requirements, QSA
	// must spread load toward less-loaded peers, unlike random.
	f := newFixture(t, 30, Config{})
	in := inst(5, 10)
	// Load peers 1..5 at 80%, leave 6..10 idle.
	for p := 1; p <= 5; p++ {
		pr := f.net.MustPeer(topology.PeerID(p))
		pr.Ledger.Reserve(pr.Capacity.Scale(0.8))
	}
	cands := ids(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	idlePicks := 0
	for i := 0; i < 50; i++ {
		got, ok := f.sel.SelectNext(0, in, cands, 1, float64(100+i)*2, probe.DirectRank(1))
		if !ok {
			t.Fatal("selection failed")
		}
		if got >= 6 {
			idlePicks++
		}
	}
	if idlePicks < 45 {
		t.Fatalf("QSA picked idle peers only %d/50 times; load balance broken", idlePicks)
	}
}
