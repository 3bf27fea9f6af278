package registry

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// forgetOwners drops every owner the registry remembers, so its next write
// routes: called before each write, it turns a registry into the reference
// that routes every write.
func forgetOwners(r *Registry) { clear(r.owners) }

// TestDirectWritesMatchRoutedWrites is the differential test of
// owner-located writes: one registry writes straight to remembered
// owners, a reference built from the same seed routes every write, and
// both go through the same interleaving of AddPeer, RemovePeer
// (graceful and abrupt), Register, Unregister and Lookup at advancing
// virtual times. Every Lookup must return the same instances with the
// same live providers, every call the same error, and every write the
// reference routed must be either a routed Lookup or a DirectWrite here.
func TestDirectWritesMatchRoutedWrites(t *testing.T) {
	names := []service.Name{"a", "b", "c", "d"}
	var insts []*service.Instance
	for _, n := range names {
		for i := 0; i < 3; i++ {
			insts = append(insts, testInst(n, i))
		}
	}
	var direct, rerouted uint64
	for seed := uint64(1); seed <= 8; seed++ {
		got, ref := New(Config{TTL: 5}, seed), New(Config{TTL: 5}, seed)
		rng := xrand.New(seed + 1000)
		var joined []topology.PeerID
		next := topology.PeerID(0)
		add := func() {
			errG, errR := got.AddPeer(next), ref.AddPeer(next)
			if errG != nil || errR != nil {
				t.Fatalf("seed %d: AddPeer(%d): %v / %v", seed, next, errG, errR)
			}
			joined = append(joined, next)
			next++
		}
		for range 40 {
			add()
		}
		pick := func() topology.PeerID { return joined[rng.Intn(len(joined))] }
		same := func(step int, what string, errG, errR error) {
			t.Helper()
			if (errG == nil) != (errR == nil) {
				t.Fatalf("seed %d step %d %s: error %v, reference %v", seed, step, what, errG, errR)
			}
		}
		now := 0.0
		for step := 0; step < 3000; step++ {
			now += 0.2 * rng.Float64()
			switch op := rng.Intn(20); {
			case op < 2:
				add()
			case op < 4 && len(joined) > 10:
				j := rng.Intn(len(joined))
				p, graceful := joined[j], rng.Bool(0.5)
				joined = slices.Delete(joined, j, j+1)
				same(step, "RemovePeer", got.RemovePeer(p, graceful), ref.RemovePeer(p, graceful))
			case op < 12:
				p, inst := pick(), insts[rng.Intn(len(insts))]
				hinted := slices.ContainsFunc(got.owners[p], func(h ownerHint) bool { return h.key == serviceKey(inst.Service) })
				before := got.Stats().DirectWrites
				forgetOwners(ref)
				same(step, "Register", got.Register(p, inst, p, now), ref.Register(p, inst, p, now))
				if hinted && got.Stats().DirectWrites == before {
					rerouted++
				}
			case op < 14:
				from, prov, inst := pick(), pick(), insts[rng.Intn(len(insts))]
				forgetOwners(ref)
				same(step, "Unregister", got.Unregister(from, inst, prov), ref.Unregister(from, inst, prov))
			default:
				from, name := pick(), names[rng.Intn(len(names))]
				eg, _, errG := got.Lookup(from, name, now)
				er, _, errR := ref.Lookup(from, name, now)
				same(step, "Lookup", errG, errR)
				if g, r := describe(eg, now), describe(er, now); g != r {
					t.Fatalf("seed %d step %d: Lookup(%d, %s) at %.2f\n got       %s\n reference %s", seed, step, from, name, now, g, r)
				}
			}
		}
		g, r := got.Stats(), ref.Stats()
		if r.Lookups != g.Lookups+g.DirectWrites {
			t.Fatalf("seed %d: reference routed %d lookups, owner-located %d + %d direct writes", seed, r.Lookups, g.Lookups, g.DirectWrites)
		}
		if r.DirectWrites != 0 || g.CacheHits != r.CacheHits || g.CacheMisses != r.CacheMisses || g.Epoch != r.Epoch {
			t.Fatalf("seed %d: stats %+v, reference %+v", seed, g, r)
		}
		direct += g.DirectWrites
	}
	// Both paths must have run: writes that skipped routing, and writes
	// whose remembered owner no longer owned the key and so routed again.
	if direct == 0 || rerouted == 0 {
		t.Fatalf("%d direct writes, %d stale owners rerouted: a path went untested", direct, rerouted)
	}
}

// describe renders a Lookup result as instance IDs with their live
// providers at now.
func describe(entries []*InstanceEntry, now float64) string {
	s := ""
	for _, e := range entries {
		s += fmt.Sprintf("%s%v ", e.Inst.ID, e.Providers(now, nil))
	}
	return s
}
