package core

import (
	"fmt"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/topology"
)

// benchGrid builds a 100-peer grid with a 3-service application, 6
// instances per service on 8 providers each — big enough that the
// discovery, composition and selection tiers all do real work per
// request. Registrations never expire (the benchmarks measure the hot
// path, not soft-state churn).
func benchGrid(tb testing.TB) (*Aggregator, *eventsim.Engine, *service.Application) {
	tb.Helper()
	const peers = 100
	net, err := topology.New(topology.Default(1, peers))
	if err != nil {
		tb.Fatal(err)
	}
	engine := eventsim.New()
	agg, err := New(Config{Seed: 1, Registry: registry.Config{TTL: 1e12}}, net, engine)
	if err != nil {
		tb.Fatal(err)
	}
	reg := agg.Registry
	for i := 0; i < peers; i++ {
		if err := reg.AddPeer(topology.PeerID(i)); err != nil {
			tb.Fatal(err)
		}
	}
	reg.Stabilize()
	app := &service.Application{ID: "bench", Path: []service.Name{"b/s0", "b/s1", "b/s2"}}
	fmts := []string{"A", "M", "N", "OUT"}
	prov := 0
	for k, name := range app.Path {
		for i := 0; i < 6; i++ {
			inst := &service.Instance{
				ID:      fmt.Sprintf("%s#%d", name, i),
				Service: name,
				Qin:     qos.MustVector(qos.Sym("format", fmts[k])),
				Qout:    qos.MustVector(qos.Sym("format", fmts[k+1]), qos.Range("rate", 20, 25)),
				R:       resource.Vec2(4+float64(i), 4+float64(i)),
				OutKbps: 10,
			}
			for p := 0; p < 8; p++ {
				if err := reg.Register(0, inst, topology.PeerID((prov+p)%peers), 0); err != nil {
					tb.Fatal(err)
				}
			}
			prov += 8
		}
	}
	return agg, engine, app
}

func benchRequest(app *service.Application) *service.Request {
	return &service.Request{
		App:      app,
		Level:    qos.Average,
		UserQoS:  qos.MustVector(qos.Range("rate", 10, 1e9)),
		Duration: 0.5,
	}
}

// BenchmarkDiscover measures the discovery tier in steady state: the
// registry is unchanged between calls, so lookups come off the epoch
// cache.
func BenchmarkDiscover(b *testing.B) {
	agg, _, app := benchGrid(b)
	if p := agg.PrepareDiscovery(99, benchRequest(app), 1); p.Err != nil {
		b.Fatal(p.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.lookupInto(&agg.sc.disc, 99, app.Path, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// aggregateOnce runs one full request cycle: aggregate at the engine
// clock, then advance past the session's end so resources are released
// and the next cycle sees the same steady state.
func aggregateOnce(tb testing.TB, agg *Aggregator, engine *eventsim.Engine,
	req *service.Request, now *float64) {
	if _, err := agg.Aggregate(99, req, *now, StrategyQSA); err != nil {
		tb.Fatal(err)
	}
	*now += req.Duration + 0.1
	engine.RunUntil(*now)
}

// BenchmarkAggregate measures the full request pipeline (discover →
// compose → select → admit → complete) in steady state.
func BenchmarkAggregate(b *testing.B) {
	agg, engine, app := benchGrid(b)
	req := benchRequest(app)
	now := 0.0
	aggregateOnce(b, agg, engine, req, &now) // warm caches and scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggregateOnce(b, agg, engine, req, &now)
	}
}

// TestAggregateSteadyStateAllocs pins the allocation budgets of the
// aggregator's per-event entry points in steady state, each at the count
// measured when it was set, so one added allocation fails the gate. The
// pre-optimization pipeline spent 124 allocations per admitted request on
// discovery slices, Dijkstra nodes, provider sets and probe measurement
// vectors; the epoch cache, the node slab, the reused provider buffers
// and the recycled measurement vectors take Aggregate to 21 (what
// remains is the session object, the composed path, and the completion
// event — state that legitimately escapes the request). Recover runs
// once per departed host across every live session; its four
// allocations grow the candidate list it collects (8 providers).
func TestAggregateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	agg, engine, app := benchGrid(t)
	req := benchRequest(app)
	now := 0.0
	for i := 0; i < 20; i++ {
		aggregateOnce(t, agg, engine, req, &now) // reach buffer high-water marks
	}
	sess, err := agg.Aggregate(99, req, now, StrategyQSA)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		budget float64
		run    func()
	}{
		{"Recover", 4, func() {
			if _, ok := agg.Recover(sess, 1, now); !ok {
				t.Fatal("no replacement for a live session's middle hop")
			}
		}},
		{"Aggregate", 21, func() { aggregateOnce(t, agg, engine, req, &now) }},
	} {
		avg := testing.AllocsPerRun(200, c.run)
		if avg > c.budget {
			t.Errorf("steady-state %s allocates %.1f/op, budget %g", c.name, avg, c.budget)
		}
		t.Logf("steady-state %s: %.1f allocs/op (budget %g)", c.name, avg, c.budget)
	}
}
