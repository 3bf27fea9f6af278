package sim

import (
	"testing"

	"repro/internal/probe"
	"repro/internal/registry"
)

// TestChurnGolden pins one small churned run, on both engines, to recorded
// counts. The shard/worker/cache invariance suites compare a build with
// itself; this one fails if a change to the DHT bookkeeping moves a
// routing decision, a hop, an epoch bump or an RNG draw. The routing
// counts were last re-recorded when joins began notifying their
// predecessors and registry writes began going straight to a remembered
// owner: Lookups + DirectWrites equals the Lookups of the run before
// (439 446 and 439 610), and every other count stayed as it was.
func TestChurnGolden(t *testing.T) {
	type golden struct {
		lookup   registry.LookupStats
		requests RequestStats
		probes   probe.Stats
	}
	for _, c := range []struct {
		shards int
		want   golden
	}{
		{0, golden{
			lookup:   registry.LookupStats{Lookups: 107048, TotalHops: 698890, DirectWrites: 332398, CacheHits: 581, CacheMisses: 2728, Epoch: 445279},
			requests: RequestStats{Issued: 1053, DepartureFailed: 742, Succeeded: 311},
			probes:   probe.Stats{Probes: 234599, CacheHits: 49409, Evictions: 91142, Rejected: 80249},
		}},
		{4, golden{
			lookup:   registry.LookupStats{Lookups: 107212, TotalHops: 699428, DirectWrites: 332398, CacheHits: 2659, CacheMisses: 2892, Epoch: 445279},
			requests: RequestStats{Issued: 947, DepartureFailed: 644, Succeeded: 303},
			probes:   probe.Stats{Probes: 211959, CacheHits: 40910, Evictions: 80053, Rejected: 60126},
		}},
	} {
		cfg := DefaultConfig(1, QSA, 2000)
		cfg.RequestRate = 200
		cfg.ChurnRate = 100
		cfg.Duration = 5
		cfg.Shards = c.shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := golden{lookup: res.Lookup, requests: res.Requests, probes: res.Probes}
		if got != c.want {
			t.Errorf("shards=%d drifted from the recorded run:\n got  %+v\n want %+v", c.shards, got, c.want)
		}
	}
}
