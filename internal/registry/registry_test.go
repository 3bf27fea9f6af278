package registry

import (
	"fmt"
	"testing"

	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/topology"
)

func testInst(name service.Name, i int) *service.Instance {
	return &service.Instance{
		ID:      fmt.Sprintf("%s#%d", name, i),
		Service: name,
		Qin:     qos.MustVector(qos.Sym("format", "MPEG")),
		Qout:    qos.MustVector(qos.Sym("format", "MPEG")),
		R:       resource.Vec2(10, 10),
		OutKbps: 100,
	}
}

func newReg(t *testing.T, peers int) *Registry {
	t.Helper()
	r := New(Config{}, 1)
	for p := 0; p < peers; p++ {
		if err := r.AddPeer(topology.PeerID(p)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRegisterLookup(t *testing.T) {
	r := newReg(t, 20)
	inst := testInst("video-server", 0)
	if err := r.Register(3, inst, 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(7, inst, 7, 0); err != nil {
		t.Fatal(err)
	}
	entries, hops, err := r.Lookup(11, "video-server", 1)
	if err != nil {
		t.Fatal(err)
	}
	if hops < 0 {
		t.Fatalf("hops = %d", hops)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1 instance", len(entries))
	}
	provs := entries[0].Providers(1, nil)
	if len(provs) != 2 || provs[0] != 3 || provs[1] != 7 {
		t.Fatalf("providers = %v", provs)
	}
}

func TestMultipleInstancesSorted(t *testing.T) {
	r := newReg(t, 20)
	for i := 0; i < 5; i++ {
		inst := testInst("translator", i)
		if err := r.Register(topology.PeerID(i), inst, topology.PeerID(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, err := r.Lookup(9, "translator", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("entries = %d", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Inst.ID >= entries[i].Inst.ID {
			t.Fatal("entries not sorted by instance ID")
		}
	}
}

func TestSoftStateExpiry(t *testing.T) {
	r := New(Config{TTL: 5}, 2)
	for p := 0; p < 10; p++ {
		r.AddPeer(topology.PeerID(p))
	}
	inst := testInst("enhancer", 0)
	r.Register(0, inst, 0, 0) // expires at 5
	r.Register(1, inst, 1, 3) // expires at 8
	entries, _, _ := r.Lookup(2, "enhancer", 6)
	if len(entries) != 1 {
		t.Fatalf("entries at t=6: %d", len(entries))
	}
	provs := entries[0].Providers(6, nil)
	if len(provs) != 1 || provs[0] != 1 {
		t.Fatalf("providers at t=6 = %v, only peer 1 should survive", provs)
	}
	entries, _, _ = r.Lookup(2, "enhancer", 9)
	if len(entries) != 0 {
		t.Fatal("fully expired instance must be omitted")
	}
}

func TestRefreshExtendsTTL(t *testing.T) {
	r := New(Config{TTL: 5}, 3)
	for p := 0; p < 10; p++ {
		r.AddPeer(topology.PeerID(p))
	}
	inst := testInst("player", 0)
	r.Register(0, inst, 0, 0)
	r.Register(0, inst, 0, 4) // refresh: now expires at 9
	entries, _, _ := r.Lookup(1, "player", 8)
	if len(entries) != 1 || entries[0].ProviderCount(8) != 1 {
		t.Fatal("refreshed registration must survive past the original TTL")
	}
}

func TestExpiredCoRegistrationsPruned(t *testing.T) {
	r := New(Config{TTL: 5}, 4)
	for p := 0; p < 10; p++ {
		r.AddPeer(topology.PeerID(p))
	}
	inst := testInst("svc", 0)
	r.Register(0, inst, 0, 0) // expires at 5
	r.Register(1, inst, 1, 10)
	entries, _, _ := r.Lookup(2, "svc", 11)
	if len(entries) != 1 {
		t.Fatal("live registration lost")
	}
	// The prune in Register should have removed peer 0's expired record.
	if n := len(entries[0].provs); n != 1 {
		t.Fatalf("expired co-registration not pruned: %d records", n)
	}
}

func TestUnregister(t *testing.T) {
	r := newReg(t, 10)
	inst := testInst("svc", 0)
	r.Register(0, inst, 0, 0)
	r.Register(1, inst, 1, 0)
	if err := r.Unregister(2, inst, 0); err != nil {
		t.Fatal(err)
	}
	entries, _, _ := r.Lookup(3, "svc", 1)
	if len(entries) != 1 || entries[0].ProviderCount(1) != 1 {
		t.Fatal("unregister must drop exactly the one provider")
	}
	if err := r.Unregister(2, inst, 1); err != nil {
		t.Fatal(err)
	}
	entries, _, _ = r.Lookup(3, "svc", 1)
	if len(entries) != 0 {
		t.Fatal("instance with no providers must vanish")
	}
	// Unregistering an absent record is a no-op, not an error.
	if err := r.Unregister(2, inst, 5); err != nil {
		t.Fatal(err)
	}
}

func TestLookupUnknownService(t *testing.T) {
	r := newReg(t, 5)
	entries, _, err := r.Lookup(0, "nope", 0)
	if err != nil || len(entries) != 0 {
		t.Fatalf("unknown service: %v, %v", entries, err)
	}
}

func TestPeerLifecycle(t *testing.T) {
	r := newReg(t, 5)
	if r.PeerCount() != 5 {
		t.Fatalf("PeerCount = %d", r.PeerCount())
	}
	if err := r.AddPeer(3); err == nil {
		t.Fatal("duplicate AddPeer must fail")
	}
	if err := r.AddPeer(-1); err == nil {
		t.Fatal("AddPeer of a negative PeerID must fail")
	}
	if err := r.AddPeers([]topology.PeerID{7, -2}); err == nil || r.PeerCount() != 5 {
		t.Fatalf("AddPeers with a negative PeerID = %v, %d peers", err, r.PeerCount())
	}
	if twice := New(Config{}, 1); twice.AddPeers([]topology.PeerID{8, 8}) != nil || twice.PeerCount() != 1 {
		t.Fatalf("AddPeers listing one peer twice joined %d peers, want 1", twice.PeerCount())
	}
	if err := r.RemovePeer(3, true); err != nil {
		t.Fatal(err)
	}
	if err := r.RemovePeer(3, true); err == nil {
		t.Fatal("double remove must fail")
	}
	if r.PeerCount() != 4 {
		t.Fatalf("PeerCount = %d after removal", r.PeerCount())
	}
	if _, _, err := r.Lookup(3, "svc", 0); err == nil {
		t.Fatal("lookup from removed peer must fail")
	}
	if err := r.Register(3, testInst("svc", 0), 3, 0); err == nil {
		t.Fatal("register from removed peer must fail")
	}
}

func TestDataSurvivesGracefulChurn(t *testing.T) {
	r := newReg(t, 30)
	inst := testInst("svc", 0)
	r.Register(0, inst, 0, 0)
	// Gracefully remove a third of peers (but not peer 0 and 1).
	for p := 10; p < 20; p++ {
		if err := r.RemovePeer(topology.PeerID(p), true); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, err := r.Lookup(1, "svc", 1)
	if err != nil || len(entries) != 1 {
		t.Fatalf("registration lost after graceful churn: %v, %v", entries, err)
	}
}

func TestDataUsuallySurvivesAbruptChurn(t *testing.T) {
	// With replication 3 (default), a single abrupt failure cannot lose
	// the record.
	r := newReg(t, 30)
	inst := testInst("svc", 0)
	r.Register(0, inst, 0, 0)
	if err := r.RemovePeer(15, false); err != nil {
		t.Fatal(err)
	}
	entries, _, err := r.Lookup(1, "svc", 1)
	if err != nil || len(entries) != 1 {
		t.Fatalf("registration lost after one abrupt failure: %v, %v", entries, err)
	}
}

func TestRegisterValidates(t *testing.T) {
	r := newReg(t, 5)
	bad := &service.Instance{ID: "", Service: "svc", R: resource.Vec2(1, 1)}
	if err := r.Register(0, bad, 0, 0); err == nil {
		t.Fatal("invalid instance must be rejected")
	}
}

func TestTTLDefault(t *testing.T) {
	r := New(Config{}, 9)
	if r.TTL() != 10 {
		t.Fatalf("default TTL = %v, want 10", r.TTL())
	}
}

func TestLookupCacheHit(t *testing.T) {
	r := newReg(t, 20)
	inst := testInst("svc", 0)
	if err := r.Register(0, inst, 0, 0); err != nil {
		t.Fatal(err)
	}
	first, hops1, err := r.Lookup(5, "svc", 1)
	if err != nil {
		t.Fatal(err)
	}
	second, hops2, err := r.Lookup(5, "svc", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if hops2 != 0 {
		t.Fatalf("cache hit must pay zero hops, got %d", hops2)
	}
	if len(second) != len(first) || second[0] != first[0] {
		t.Fatal("cache hit must return the identical entries")
	}
	s := r.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("stats = hits %d misses %d, want 1/1", s.CacheHits, s.CacheMisses)
	}
	_ = hops1
}

func TestLookupCacheInvalidatedByMutation(t *testing.T) {
	r := newReg(t, 20)
	a := testInst("svc", 0)
	if err := r.Register(0, a, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Lookup(5, "svc", 1); err != nil {
		t.Fatal(err)
	}
	e0 := r.Epoch()
	// A second registration bumps the epoch; the next lookup must go to
	// the DHT and see the new provider.
	if err := r.Register(1, a, 1, 1); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() == e0 {
		t.Fatal("Register must bump the epoch")
	}
	entries, _, err := r.Lookup(5, "svc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].ProviderCount(2) != 2 {
		t.Fatal("post-mutation lookup must observe the new provider")
	}
	if s := r.Stats(); s.CacheHits != 0 || s.CacheMisses != 2 {
		t.Fatalf("stats = hits %d misses %d, want 0/2", s.CacheHits, s.CacheMisses)
	}
}

func TestLookupCacheRespectsTTLHorizon(t *testing.T) {
	r := New(Config{TTL: 5}, 11)
	for p := 0; p < 10; p++ {
		r.AddPeer(topology.PeerID(p))
	}
	inst := testInst("svc", 0)
	r.Register(0, inst, 0, 0) // expires at 5
	if _, _, err := r.Lookup(1, "svc", 1); err != nil {
		t.Fatal(err)
	}
	// t=6 crosses the registration's expiry: the cached slot (valid until
	// 5) must not serve, and the fresh lookup must omit the dead entry.
	entries, _, err := r.Lookup(1, "svc", 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatal("expired registration served from cache")
	}
	if s := r.Stats(); s.CacheHits != 0 {
		t.Fatalf("cache hits = %d, want 0", s.CacheHits)
	}
}

func TestLookupCacheInvalidatedByChurn(t *testing.T) {
	r := newReg(t, 30)
	inst := testInst("svc", 0)
	r.Register(0, inst, 0, 0)
	if _, _, err := r.Lookup(1, "svc", 1); err != nil {
		t.Fatal(err)
	}
	e0 := r.Epoch()
	if err := r.RemovePeer(20, true); err != nil {
		t.Fatal(err)
	}
	if err := r.AddPeer(40); err != nil {
		t.Fatal(err)
	}
	if r.Epoch() != e0+2 {
		t.Fatalf("join+leave must bump the epoch twice: %d -> %d", e0, r.Epoch())
	}
	if _, _, err := r.Lookup(1, "svc", 1.1); err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.CacheHits != 0 || s.CacheMisses != 2 {
		t.Fatalf("stats = hits %d misses %d, want 0/2", s.CacheHits, s.CacheMisses)
	}
}

func TestLookupDisableCacheEquivalence(t *testing.T) {
	build := func(disable bool) *Registry {
		r := New(Config{TTL: 5, DisableCache: disable}, 7)
		for p := 0; p < 20; p++ {
			r.AddPeer(topology.PeerID(p))
		}
		for i := 0; i < 3; i++ {
			r.Register(topology.PeerID(i), testInst("svc", i), topology.PeerID(i), 0)
		}
		return r
	}
	cached, plain := build(false), build(true)
	for _, now := range []float64{1, 1, 2, 4.5, 6, 6} {
		a, _, errA := cached.Lookup(5, "svc", now)
		b, _, errB := plain.Lookup(5, "svc", now)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("error mismatch at t=%v: %v vs %v", now, errA, errB)
		}
		if len(a) != len(b) {
			t.Fatalf("entry count mismatch at t=%v: %d vs %d", now, len(a), len(b))
		}
		for i := range a {
			if a[i].Inst.ID != b[i].Inst.ID {
				t.Fatalf("entry order mismatch at t=%v", now)
			}
		}
	}
	if s := plain.Stats(); s.CacheHits != 0 || s.CacheMisses != 0 {
		t.Fatal("disabled cache must not count hits or misses")
	}
}

func TestDeadPeerLookupFailsEvenWhenCached(t *testing.T) {
	r := newReg(t, 20)
	inst := testInst("svc", 0)
	r.Register(0, inst, 0, 0)
	if _, _, err := r.Lookup(5, "svc", 1); err != nil {
		t.Fatal(err)
	}
	if err := r.RemovePeer(5, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Lookup(5, "svc", 1.1); err == nil {
		t.Fatal("lookup from a removed peer must fail even with a warm cache")
	}
}
