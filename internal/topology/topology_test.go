package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/resource"
	"repro/internal/xrand"
)

func mustNet(t *testing.T, seed uint64, n int) *Network {
	t.Helper()
	net, err := New(Default(seed, n))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewPopulation(t *testing.T) {
	net := mustNet(t, 1, 100)
	if net.AliveCount() != 100 || net.TotalCount() != 100 {
		t.Fatalf("counts = %d alive / %d total", net.AliveCount(), net.TotalCount())
	}
	arr, dep := net.Churn()
	if arr != 100 || dep != 0 {
		t.Fatalf("churn = %d/%d", arr, dep)
	}
}

func TestCapacityRange(t *testing.T) {
	net := mustNet(t, 2, 1000)
	net.AlivePeers(func(p *Peer) {
		c := p.Capacity
		if len(c) != 2 || c[0] != c[1] {
			t.Fatalf("capacity must be correlated 2-vector, got %v", c)
		}
		if c[0] < 100 || c[0] > 1000 {
			t.Fatalf("capacity %v outside [100,1000]", c[0])
		}
	})
}

func TestCapacityHeterogeneity(t *testing.T) {
	net := mustNet(t, 3, 1000)
	lo, hi := 0, 0
	net.AlivePeers(func(p *Peer) {
		if p.Capacity[0] < 400 {
			lo++
		}
		if p.Capacity[0] > 700 {
			hi++
		}
	})
	if lo < 100 || hi < 100 {
		t.Fatalf("capacities not heterogeneous: %d low, %d high of 1000", lo, hi)
	}
}

func TestBandwidthSymmetricStableClassed(t *testing.T) {
	net := mustNet(t, 4, 50)
	classes := map[float64]bool{10000: true, 500: true, 100: true, 56: true}
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			bw := net.Bandwidth(PeerID(a), PeerID(b))
			if !classes[bw] {
				t.Fatalf("Bandwidth(%d,%d) = %v not in paper classes", a, b, bw)
			}
			if bw != net.Bandwidth(PeerID(b), PeerID(a)) {
				t.Fatalf("bandwidth asymmetric for (%d,%d)", a, b)
			}
			if bw != net.Bandwidth(PeerID(a), PeerID(b)) {
				t.Fatalf("bandwidth unstable for (%d,%d)", a, b)
			}
		}
	}
}

func TestLatencyClasses(t *testing.T) {
	net := mustNet(t, 5, 50)
	classes := map[float64]bool{200: true, 150: true, 80: true, 20: true, 1: true}
	seen := map[float64]bool{}
	for a := 0; a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			l := net.Latency(PeerID(a), PeerID(b))
			if !classes[l] {
				t.Fatalf("Latency(%d,%d) = %v not in paper classes", a, b, l)
			}
			if l != net.Latency(PeerID(b), PeerID(a)) {
				t.Fatalf("latency asymmetric")
			}
			seen[l] = true
		}
	}
	if len(seen) < 4 {
		t.Fatalf("latency classes barely used: %v", seen)
	}
}

func TestBandwidthLatencyIndependent(t *testing.T) {
	// The salt must make bandwidth and latency class picks independent:
	// pairs with equal bandwidth should still spread over latency classes.
	net := mustNet(t, 6, 100)
	seenLat := map[float64]bool{}
	for a := 0; a < 60; a++ {
		for b := a + 1; b < 60; b++ {
			if net.Bandwidth(PeerID(a), PeerID(b)) == 10000 {
				seenLat[net.Latency(PeerID(a), PeerID(b))] = true
			}
		}
	}
	if len(seenLat) < 3 {
		t.Fatalf("latency not independent of bandwidth: %v", seenLat)
	}
}

func TestDepartAndJoin(t *testing.T) {
	net := mustNet(t, 7, 10)
	p := net.DepartRandom(5)
	if p == nil || p.Alive {
		t.Fatal("DepartRandom must return a departed peer")
	}
	if p.DepartTime != 5 {
		t.Fatalf("DepartTime = %v", p.DepartTime)
	}
	if net.AliveCount() != 9 {
		t.Fatalf("AliveCount = %d", net.AliveCount())
	}
	if err := net.Depart(p.ID, 6); err == nil {
		t.Fatal("double departure must fail")
	}
	fresh, err := net.Join(8)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != 10 {
		t.Fatalf("fresh ID = %d, IDs must never be reused", fresh.ID)
	}
	if net.AliveCount() != 10 || net.TotalCount() != 11 {
		t.Fatalf("counts after join = %d/%d", net.AliveCount(), net.TotalCount())
	}
}

func TestUptime(t *testing.T) {
	cfg := Default(8, 3)
	cfg.InitialUptimeMax = -1 // cold start for exact arithmetic
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := net.MustPeer(0)
	if u := p.Uptime(30); u != 30 {
		t.Fatalf("Uptime = %v", u)
	}
	fresh, _ := net.Join(12)
	if u := fresh.Uptime(30); u != 18 {
		t.Fatalf("fresh peer Uptime = %v", u)
	}
	net.Depart(p.ID, 20)
	if u := p.Uptime(30); u != 0 {
		t.Fatalf("departed peer Uptime = %v, want 0", u)
	}
}

func TestPeerErrors(t *testing.T) {
	net := mustNet(t, 9, 3)
	if _, err := net.Peer(-1); err == nil {
		t.Fatal("negative ID must fail")
	}
	if _, err := net.Peer(99); err == nil {
		t.Fatal("out-of-range ID must fail")
	}
	if err := net.Depart(99, 0); err == nil {
		t.Fatal("departing unknown peer must fail")
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{Seed: 1, N: 0}); err == nil {
		t.Fatal("N=0 must fail")
	}
	if _, err := New(Config{Seed: 1, N: 5, MinCapacity: 10, MaxCapacity: 5}); err == nil {
		t.Fatal("inverted capacity range must fail")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := mustNet(t, 42, 200)
	b := mustNet(t, 42, 200)
	for i := 0; i < 200; i++ {
		pa, pb := a.MustPeer(PeerID(i)), b.MustPeer(PeerID(i))
		if pa.Capacity[0] != pb.Capacity[0] {
			t.Fatalf("peer %d capacity differs across identically seeded runs", i)
		}
	}
	if a.Bandwidth(3, 77) != b.Bandwidth(3, 77) {
		t.Fatal("bandwidth differs across identically seeded runs")
	}
	pa, pb := a.DepartRandom(1), b.DepartRandom(1)
	if pa.ID != pb.ID {
		t.Fatal("churn choice differs across identically seeded runs")
	}
}

func TestBandwidthLedgerUsesPairCapacity(t *testing.T) {
	net := mustNet(t, 10, 20)
	led := net.BandwidthLedger()
	// Find a 56 kbps pair and check the ledger enforces that capacity.
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			if net.Bandwidth(PeerID(a), PeerID(b)) == 56 {
				if led.Reserve(a, b, 100) {
					t.Fatal("ledger admitted 100 kbps on a 56 kbps pair")
				}
				if !led.Reserve(a, b, 56) {
					t.Fatal("ledger rejected exact-capacity reservation")
				}
				led.Release(a, b, 56)
				return
			}
		}
	}
	t.Skip("no 56 kbps pair in the sample window")
}

func TestRandomAliveEmpty(t *testing.T) {
	net := mustNet(t, 11, 2)
	net.DepartRandom(0)
	net.DepartRandom(0)
	if net.RandomAliveFrom(xrand.New(1)) != nil || net.DepartRandom(0) != nil {
		t.Fatal("empty alive set must yield nil")
	}
}

// Property: after any churn sequence, AliveCount equals initial + arrivals
// beyond init − departures, and the alive set contains exactly the
// non-departed peers.
func TestPropertyChurnAccounting(t *testing.T) {
	check := func(ops []bool) bool {
		net, err := New(Default(99, 20))
		if err != nil {
			return false
		}
		for i, join := range ops {
			now := float64(i)
			if join {
				if _, err := net.Join(now); err != nil {
					return false
				}
			} else {
				net.DepartRandom(now)
			}
		}
		aliveSeen := 0
		net.AlivePeers(func(p *Peer) {
			if !p.Alive {
				return
			}
			aliveSeen++
		})
		arr, dep := net.Churn()
		return aliveSeen == net.AliveCount() && net.AliveCount() == arr-dep
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxClassHelpers(t *testing.T) {
	net := mustNet(t, 12, 5)
	if net.MaxCapacity() != 1000 {
		t.Fatalf("MaxCapacity = %v", net.MaxCapacity())
	}
}

func TestLedgerSharedWithPeers(t *testing.T) {
	net := mustNet(t, 13, 5)
	p := net.MustPeer(0)
	req := resource.Vec2(10, 10)
	if !p.Ledger.Reserve(req) {
		t.Fatal("fresh peer must admit a small reservation")
	}
	if got := p.Ledger.Available(); got[0] != p.Capacity[0]-10 {
		t.Fatalf("Available = %v", got)
	}
	p.Ledger.Release(req)
}
