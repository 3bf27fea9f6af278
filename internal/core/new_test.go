package core

import (
	"testing"

	"repro/internal/compose"
	"repro/internal/obs"
	"repro/internal/selection"
	"repro/internal/session"
)

// TestNewWiresMetrics: with a metrics registry, every subsystem New
// builds counts into it, and each subsystem's own stats read the same
// counters.
func TestNewWiresMetrics(t *testing.T) {
	m := obs.NewRegistry()
	f := newFixtureWith(t, Config{Seed: 1, Metrics: m})
	if _, err := f.agg.Aggregate(0, f.request(5), 0, StrategyQSA); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]uint64)
	for _, c := range m.Snapshot().Counters {
		counts[c.Name] = c.Value
	}
	for name, want := range map[string]uint64{
		"session.admitted":       f.agg.Sessions.Counters().Admitted,
		"probe.probes":           f.agg.Probes.Stats().Probes,
		"select.informed":        f.agg.PhiSelector.Stats().Informed,
		"discovery.cache_misses": f.agg.Registry.Stats().CacheMisses,
	} {
		if want == 0 || counts[name] != want {
			t.Errorf("counter %s = %d, subsystem says %d", name, counts[name], want)
		}
	}
	for _, name := range []string{"compose.runs", "compose.memo_user_misses"} {
		if counts[name] == 0 {
			t.Errorf("counter %s not wired", name)
		}
	}
	if g := m.Gauge("session.active").Value(); g != 1 {
		t.Errorf("session.active = %d, want 1", g)
	}
}

// TestNewCaches: the compatibility memo exists unless DisableCaches, and
// the scratch arena always does.
func TestNewCaches(t *testing.T) {
	for _, off := range []bool{false, true} {
		f := newFixtureWith(t, Config{Seed: 1, DisableCaches: off})
		cc := f.agg.ComposeConfig
		if (cc.Memo == nil) != off || cc.Scratch == nil {
			t.Errorf("DisableCaches=%v: memo %v, scratch %v", off, cc.Memo != nil, cc.Scratch != nil)
		}
		if _, err := f.agg.Aggregate(0, f.request(5), 0, StrategyQSA); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewRejectsBadWeights: New validates the composer's and the
// selector's weights before building anything.
func TestNewRejectsBadWeights(t *testing.T) {
	f := newFixture(t)
	for _, cfg := range []Config{
		{Compose: compose.Config{Weights: []float64{0.5, 0.6, 0}}},
		{Selection: selection.Config{Weights: []float64{-1, 1, 1}}},
	} {
		if _, err := New(cfg, f.net, f.engine); err == nil {
			t.Errorf("bad config %+v accepted", cfg)
		}
	}
}

// TestDepartFailsSessions: without recovery, a host's departure fails
// the sessions it provisions.
func TestDepartFailsSessions(t *testing.T) {
	f := newFixture(t)
	sess, err := f.agg.Aggregate(0, f.request(30), 0, StrategyQSA)
	if err != nil {
		t.Fatal(err)
	}
	host := sess.Peers[1]
	f.net.Depart(host, 1)
	if err := f.agg.Depart(host, 1); err != nil {
		t.Fatal(err)
	}
	if sess.State != session.Failed {
		t.Fatalf("state = %v after the host departed", sess.State)
	}
}
