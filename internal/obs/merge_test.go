package obs

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func snapOf(fill func(r *Registry)) Snapshot {
	r := NewRegistry()
	fill(r)
	return r.Snapshot()
}

func TestMergeSnapshotsCountersGauges(t *testing.T) {
	a := snapOf(func(r *Registry) {
		r.Counter("x").Add(3)
		r.Counter("only_a").Inc()
		r.Gauge("g").Set(5)
	})
	b := snapOf(func(r *Registry) {
		r.Counter("x").Add(4)
		r.Gauge("g").Set(-2)
		r.Gauge("only_b").Set(7)
	})
	m, err := MergeSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	c := map[string]uint64{}
	for _, cv := range m.Counters {
		c[cv.Name] = cv.Value
	}
	if c["x"] != 7 || c["only_a"] != 1 {
		t.Fatalf("counters %v", c)
	}
	g := map[string]int64{}
	for _, gv := range m.Gauges {
		g[gv.Name] = gv.Value
	}
	if g["g"] != 3 || g["only_b"] != 7 {
		t.Fatalf("gauges %v", g)
	}
	for i := 1; i < len(m.Counters); i++ {
		if m.Counters[i-1].Name >= m.Counters[i].Name {
			t.Fatal("merged counters not sorted")
		}
	}
}

// TestMergeLatencyMatchesOracle is the cross-peer merge soundness
// check: the same observations recorded on one peer (the oracle) and
// scattered across several peers must produce identical merged
// sketches — count, sum, and every quantile.
func TestMergeLatencyMatchesOracle(t *testing.T) {
	const peers, n = 5, 4000
	oracle := NewLatencyHist()
	regs := make([]*Registry, peers)
	for i := range regs {
		regs[i] = NewRegistry()
	}
	rng := xrand.New(77)
	for i := 0; i < n; i++ {
		v := rng.Exp(10) // latencies around 100ms
		oracle.Observe(v)
		regs[i%peers].Latency("serve.latency_seconds").Observe(v)
	}
	snaps := make([]Snapshot, peers)
	for i, r := range regs {
		snaps[i] = r.Snapshot()
	}
	m, err := MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Latencies) != 1 {
		t.Fatalf("got %d latency sketches", len(m.Latencies))
	}
	got := m.Latencies[0]
	want := oracle.SnapshotValue("serve.latency_seconds")
	if got.Count != want.Count || got.Zeros != want.Zeros {
		t.Fatalf("count=%d zeros=%d, oracle %d/%d", got.Count, got.Zeros, want.Count, want.Zeros)
	}
	if math.Abs(got.Sum-want.Sum) > 1e-9*want.Sum {
		t.Fatalf("sum %g, oracle %g", got.Sum, want.Sum)
	}
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("%d buckets, oracle %d", len(got.Buckets), len(want.Buckets))
	}
	for i, b := range got.Buckets {
		if b != want.Buckets[i] {
			t.Fatalf("bucket %d: %+v, oracle %+v", i, b, want.Buckets[i])
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if got.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q%.3f: merged %g, oracle %g", q, got.Quantile(q), want.Quantile(q))
		}
	}
}

func TestMergeSnapshotsEmpty(t *testing.T) {
	m, err := MergeSnapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Counters)+len(m.Gauges)+len(m.Latencies) != 0 {
		t.Fatalf("empty merge not empty: %+v", m)
	}
}
