package registry

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// BenchmarkRegistryRefresh times one soft-state sweep — every provider
// re-registering every instance it hosts, as the simulator's refresh does
// each TTL/2 — on a stabilized 10⁴-peer ring carrying the paper's catalog
// (40–80 providers per instance). It reports the routed lookups one sweep
// makes: with owner-located writes a sweep over an unchanged ring routes
// none.
func BenchmarkRegistryRefresh(b *testing.B) {
	const peers = 10_000
	reg := New(Config{}, 1)
	ids := make([]topology.PeerID, peers)
	for i := range ids {
		ids[i] = topology.PeerID(i)
	}
	if err := reg.AddPeers(ids); err != nil {
		b.Fatal(err)
	}
	reg.Stabilize()
	cat, err := catalog.New(catalog.Default(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	provides := make([][]*service.Instance, peers)
	for _, inst := range cat.AllInstances() {
		for range cat.ProviderCount(rng, peers) {
			p := rng.Intn(peers)
			provides[p] = append(provides[p], inst)
		}
	}
	sweep := func(now float64) {
		for p, insts := range provides {
			for _, inst := range insts {
				if err := reg.Register(topology.PeerID(p), inst, topology.PeerID(p), now); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	sweep(0)
	before := reg.Stats().Lookups
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(float64(i + 1))
	}
	b.ReportMetric(float64(reg.Stats().Lookups-before)/float64(b.N), "lookups/op")
}
