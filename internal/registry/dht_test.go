package registry

import (
	"testing"

	"repro/internal/topology"
)

// TestRegistryOverBothSubstrates keeps its name from when the registry ran
// over Chord and CAN; Chord is now the only substrate, so it is the only case.
func TestRegistryOverBothSubstrates(t *testing.T) {
	t.Run("chord", func(t *testing.T) {
		r := newReg(t, 30)
		inst := testInst("svc", 0)
		if err := r.Register(3, inst, 3, 0); err != nil {
			t.Fatal(err)
		}
		if err := r.Register(9, inst, 9, 0); err != nil {
			t.Fatal(err)
		}
		entries, hops, err := r.Lookup(17, "svc", 1)
		if err != nil {
			t.Fatal(err)
		}
		if hops < 0 {
			t.Fatalf("hops = %d", hops)
		}
		if len(entries) != 1 || entries[0].ProviderCount(1) != 2 {
			t.Fatalf("entries = %v", entries)
		}
		// Abrupt removal of a non-owner peer must not lose the record.
		if err := r.RemovePeer(20, false); err != nil {
			t.Fatal(err)
		}
		entries, _, err = r.Lookup(5, "svc", 1)
		if err != nil || len(entries) != 1 {
			t.Fatalf("after failure: %v, %v", entries, err)
		}
		if r.Stats().Lookups == 0 {
			t.Fatal("no lookups recorded")
		}
	})
}

// TestAddPeersMatchesSequentialJoins: the bulk join draws ring ids in the
// order sequential AddPeer calls would and bumps the epoch once per peer,
// so a stabilized registry routes identically either way.
func TestAddPeersMatchesSequentialJoins(t *testing.T) {
	const peers = 64
	// Uncached, so every lookup routes and reports its hops.
	seq := New(Config{DisableCache: true}, 1)
	bulk := New(Config{DisableCache: true}, 1)
	ids := make([]topology.PeerID, peers)
	for i := range ids {
		ids[i] = topology.PeerID(i)
		if err := seq.AddPeer(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	seq.Stabilize()
	if err := bulk.AddPeers(ids); err != nil {
		t.Fatal(err)
	}
	if err := bulk.AddPeers(ids[:1]); err == nil {
		t.Fatal("AddPeers accepted an already-joined peer")
	}
	if seq.Epoch() != bulk.Epoch() || seq.PeerCount() != bulk.PeerCount() {
		t.Fatalf("epoch/peers: sequential %d/%d, bulk %d/%d",
			seq.Epoch(), seq.PeerCount(), bulk.Epoch(), bulk.PeerCount())
	}
	for _, r := range []*Registry{seq, bulk} {
		if err := r.Register(7, testInst("svc", 0), 7, 0); err != nil {
			t.Fatal(err)
		}
	}
	for from := topology.PeerID(0); from < peers; from++ {
		_, h1, err1 := seq.Lookup(from, "svc", 1)
		_, h2, err2 := bulk.Lookup(from, "svc", 1)
		if err1 != nil || err2 != nil || h1 != h2 {
			t.Fatalf("lookup from %d: sequential %d hops (%v), bulk %d hops (%v)", from, h1, err1, h2, err2)
		}
	}
}

func TestLookupStatsMeanHops(t *testing.T) {
	var s LookupStats
	if s.MeanHops() != 0 {
		t.Fatal("MeanHops on empty stats must be 0")
	}
	s = LookupStats{Lookups: 5, TotalHops: 20}
	if s.MeanHops() != 4 {
		t.Fatalf("MeanHops = %v", s.MeanHops())
	}
}
