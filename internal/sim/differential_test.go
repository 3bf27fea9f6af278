package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// diffConfig is the differential suite's workload: small enough to run in
// -short mode, with nonzero churn so the epoch cache is invalidated
// mid-run and the TTL horizon actually bites.
func diffConfig(alg Algorithm, disable bool) Config {
	cfg := DefaultConfig(7, alg, 350)
	cfg.RequestRate = 30
	cfg.ChurnRate = 10
	cfg.Duration = 8
	cfg.DisableCaches = disable
	return cfg
}

// TestCachesAreInvisible is the performance plane's determinism contract:
// for every algorithm, a run with the epoch-keyed lookup cache and the
// compatibility memo enabled must be byte-identical — request outcomes,
// ψ, the ψ time series, and the full telemetry event stream — to the same
// seed run with both disabled. Only routing statistics (hop counts, cache
// hit counters) may differ.
func TestCachesAreInvisible(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			var cachedTel, plainTel bytes.Buffer

			cfgCached := diffConfig(alg, false)
			cfgCached.TelemetryOut = &cachedTel
			cached, err := Run(cfgCached)
			if err != nil {
				t.Fatal(err)
			}

			cfgPlain := diffConfig(alg, true)
			cfgPlain.TelemetryOut = &plainTel
			plain, err := Run(cfgPlain)
			if err != nil {
				t.Fatal(err)
			}

			if cached.Requests != plain.Requests {
				t.Fatalf("RequestStats diverged:\ncached: %+v\nplain:  %+v", cached.Requests, plain.Requests)
			}
			if cached.Psi != plain.Psi {
				t.Fatalf("ψ diverged: %+v vs %+v", cached.Psi, plain.Psi)
			}
			if !reflect.DeepEqual(cached.Series, plain.Series) {
				t.Fatalf("ψ series diverged:\ncached: %+v\nplain:  %+v", cached.Series, plain.Series)
			}
			if cached.Sessions != plain.Sessions {
				t.Fatalf("session counters diverged: %+v vs %+v", cached.Sessions, plain.Sessions)
			}
			if cached.AliveAtEnd != plain.AliveAtEnd {
				t.Fatalf("population diverged: %d vs %d", cached.AliveAtEnd, plain.AliveAtEnd)
			}
			if !bytes.Equal(cachedTel.Bytes(), plainTel.Bytes()) {
				t.Fatalf("telemetry streams diverged (%d vs %d bytes)", cachedTel.Len(), plainTel.Len())
			}
			// The caches must actually have been exercised for the
			// comparison to mean anything.
			if cached.Lookup.CacheHits == 0 {
				t.Fatal("cached run recorded zero discovery-cache hits")
			}
			if plain.Lookup.CacheHits != 0 || plain.Lookup.CacheMisses != 0 {
				t.Fatalf("disabled-cache run counted cache traffic: %+v", plain.Lookup)
			}
			// Churn must have bumped the epoch past the initial joins, or
			// the invalidation path went untested.
			if cached.Lookup.Epoch == plain.Lookup.Epoch {
				// Same workload, same mutations — epochs agree; just make
				// sure there were plenty.
				if cached.Lookup.Epoch < uint64(cfgCached.Peers) {
					t.Fatalf("suspiciously few epoch bumps: %d", cached.Lookup.Epoch)
				}
			}
		})
	}
}

// TestSameSeedSameResult pins plain determinism under the performance
// plane: two identical cached runs replay byte-identically.
func TestSameSeedSameResult(t *testing.T) {
	var telA, telB bytes.Buffer
	cfgA := diffConfig(QSA, false)
	cfgA.TelemetryOut = &telA
	a, err := Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := diffConfig(QSA, false)
	cfgB.TelemetryOut = &telB
	b, err := Run(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests || a.Psi != b.Psi || a.Lookup != b.Lookup {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", a.Requests, b.Requests)
	}
	if !bytes.Equal(telA.Bytes(), telB.Bytes()) {
		t.Fatal("same-seed telemetry streams diverged")
	}
}

// BenchmarkSimMinute measures one simulated minute of the paper's
// workload at small scale — the end-to-end number the performance plane
// optimizes.
func BenchmarkSimMinute(b *testing.B) {
	cfg := DefaultConfig(3, QSA, 400)
	cfg.RequestRate = 60
	cfg.ChurnRate = 4
	cfg.RegistryRefresh = 5 // explicit: the ticker below needs a period
	cfg.Duration = 1e9      // the loop below decides when to stop
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	engine := s.Engine()
	refresh := engine.Every(cfg.RegistryRefresh, cfg.RegistryRefresh, func() {
		s.refreshRegistrations(engine.Now())
	})
	defer refresh.Cancel()
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.scheduleRequests(now)
		s.scheduleChurn(now)
		now++
		engine.RunUntil(now)
	}
}

// shardDiffConfig is the per-request-stream differential workload: small
// enough for the -race suite, with churn so registry epochs move while
// requests are in flight.
func shardDiffConfig(alg Algorithm, shards int) Config {
	cfg := DefaultConfig(7, alg, 300)
	cfg.RequestRate = 30
	cfg.ChurnRate = 8
	cfg.Duration = 3
	cfg.Shards = shards
	return cfg
}

// TestShardCountInvariance is the per-request-stream realization's
// determinism contract: the shard count selects the realization and names
// nothing else, so for each of the paper's three algorithms runs at 1, 2,
// 4, and 8 shards replay byte-identically — request outcomes, ψ and its
// time series, session counters, routing statistics, and the full
// telemetry stream.
func TestShardCountInvariance(t *testing.T) {
	for _, alg := range Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			var ref *Result
			var refTel []byte
			for _, shards := range []int{1, 2, 4, 8} {
				var tel bytes.Buffer
				cfg := shardDiffConfig(alg, shards)
				cfg.TelemetryOut = &tel
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Requests.Issued == 0 {
					t.Fatal("no requests issued")
				}
				if ref == nil {
					ref, refTel = res, tel.Bytes()
					continue
				}
				if res.Requests != ref.Requests {
					t.Fatalf("shards=%d RequestStats diverged:\nref: %+v\ngot: %+v", shards, ref.Requests, res.Requests)
				}
				if res.Psi != ref.Psi {
					t.Fatalf("shards=%d ψ diverged: %+v vs %+v", shards, ref.Psi, res.Psi)
				}
				if !reflect.DeepEqual(res.Series, ref.Series) {
					t.Fatalf("shards=%d ψ series diverged", shards)
				}
				if res.Sessions != ref.Sessions {
					t.Fatalf("shards=%d session counters diverged: %+v vs %+v", shards, ref.Sessions, res.Sessions)
				}
				if res.Lookup != ref.Lookup {
					t.Fatalf("shards=%d routing stats diverged: %+v vs %+v", shards, ref.Lookup, res.Lookup)
				}
				if res.AliveAtEnd != ref.AliveAtEnd {
					t.Fatalf("shards=%d population diverged", shards)
				}
				if !bytes.Equal(tel.Bytes(), refTel) {
					t.Fatalf("shards=%d telemetry diverged (%d vs %d bytes)", shards, len(refTel), tel.Len())
				}
			}
		})
	}
}

// TestShardMetricsCollected: with per-request streams the compose and
// memo counters reach Config.Metrics like every other subsystem's —
// composition runs at least once per request that got past discovery —
// and the whole snapshot is identical at 1, 4 and 8 shards.
func TestShardMetricsCollected(t *testing.T) {
	var ref obs.Snapshot
	for _, shards := range []int{1, 4, 8} {
		cfg := shardDiffConfig(QSA, shards)
		cfg.Metrics = obs.NewRegistry()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := cfg.Metrics.Snapshot()
		counts := make(map[string]uint64)
		for _, c := range snap.Counters {
			counts[c.Name] = c.Value
		}
		if reached := res.Requests.Issued - res.Requests.DiscoveryFailed; reached == 0 || counts["compose.runs"] < reached {
			t.Fatalf("shards=%d: compose.runs %d for %d requests past discovery", shards, counts["compose.runs"], reached)
		}
		if counts["compose.memo_feed_hits"]+counts["compose.memo_feed_misses"] == 0 {
			t.Fatalf("shards=%d: memo counters not collected: %v", shards, counts)
		}
		if shards == 1 {
			ref = snap
		} else if !reflect.DeepEqual(snap, ref) {
			t.Fatalf("shards=%d metrics snapshot differs from shards=1:\n%+v\n%+v", shards, snap, ref)
		}
	}
}

// TestMillionPeerSharded exercises the 10⁶-peer scale target: the flat
// slab topology, bulk DHT join, and per-request streams must complete a
// short workload without blowing memory or time budgets. Skipped in
// -short mode; the full (race-free) suite runs it.
func TestMillionPeerSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("million-peer run is for the full suite")
	}
	cfg := DefaultConfig(5, QSA, 1_000_000)
	cfg.RequestRate = 20
	cfg.ChurnRate = 4
	cfg.Duration = 1
	cfg.Shards = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests.Issued == 0 {
		t.Fatal("no requests issued at 10⁶ peers")
	}
	if res.AliveAtEnd < 999_000 {
		t.Fatalf("population collapsed: %d alive", res.AliveAtEnd)
	}
}
