// Chaos suite over the UDP transport: the same protocol invariants as
// the TCP chaos tests (no double-reservation, reservations always
// released or expired, partition-heal convergence), but with faults
// injected per DATAGRAM rather than per dial — seeded drop,
// duplication and reordering of individual packets, exercising the
// fragmentation, ack/retransmit and dedup machinery of DESIGN.md §6.2.
package netproto_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/service"
)

// udpChaosCluster starts n UDP/binary peers whose outgoing datagrams
// route through fab's packet plane, named n0..n(n-1), joined via n0.
func udpChaosCluster(t *testing.T, fab *faults.Fabric, n int, cpu float64, tweak func(i int, cfg *netproto.Config)) []*netproto.Peer {
	t.Helper()
	peers := make([]*netproto.Peer, n)
	for i := range peers {
		cfg := netproto.Config{
			Listen:  "127.0.0.1:0",
			Network: "udp",
			CPU:     cpu,
			Memory:  cpu,
			// Comfortably past the full retransmit horizon (~0.5 s at
			// AckTimeout 15 ms × budget 6), but short enough that lossy
			// single-shot RPCs don't serialize long stalls on 1 CPU.
			RPCTimeout: time.Second,
			Wire: netproto.WireConfig{
				AckTimeout:       15 * time.Millisecond,
				RetransmitBudget: 6,
				PacketFilter:     fab.PacketNode(nodeName(i)),
			},
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		p, err := netproto.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		fab.Register(nodeName(i), p.Addr())
		peers[i] = p
	}
	for i := 1; i < n; i++ {
		if err := peers[i].Join(peers[0].Addr()); err != nil {
			t.Fatalf("join peer %d: %v", i, err)
		}
	}
	return peers
}

// TestChaosUDPAggregateUnderPacketLoss runs end-to-end aggregations
// over UDP at 0%, 10% and 30% per-packet drop (plus duplication and
// reordering at the lossy rates). Every request must return a valid
// plan or a clean error, and once every session has been rolled back
// or expired all capacity must be back — duplicated reserve packets
// must never double-book.
func TestChaosUDPAggregateUnderPacketLoss(t *testing.T) {
	for _, rate := range []float64{0, 0.10, 0.30} {
		t.Run(fmt.Sprintf("drop=%v", rate), func(t *testing.T) {
			fab, err := faults.New(faults.Config{Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			pc := faults.PacketConfig{DropRate: rate}
			if rate > 0 {
				pc.DupRate = 0.05
				pc.ReorderRate = 0.10
				pc.ReorderDelay = time.Millisecond
			}
			if err := fab.EnablePackets(pc); err != nil {
				t.Fatal(err)
			}
			const cpu = 400
			peers := udpChaosCluster(t, fab, 5, cpu, nil)
			src := chaosInst("source#0", "source", "RAW", "MPEG", 40)
			snk := chaosInst("player#0", "player", "MPEG", "SCREEN", 30)
			for _, p := range peers[1:3] {
				if err := p.Provide(src); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range peers[2:4] {
				if err := p.Provide(snk); err != nil {
					t.Fatal(err)
				}
			}
			user := peers[4]
			ok := 0
			const requests = 6
			for i := 0; i < requests; i++ {
				plan, err := user.Aggregate([]service.Name{"source", "player"}, chaosQoS, 250*time.Millisecond)
				if err != nil {
					continue // a clean failure is an allowed outcome under loss
				}
				ok++
				if len(plan.Peers) != 2 || len(plan.Instances) != 2 {
					t.Fatalf("request %d: malformed plan %+v", i, plan)
				}
			}
			if rate == 0 && ok != requests {
				t.Fatalf("lossless packet plane completed %d/%d aggregations", ok, requests)
			}
			t.Logf("packet drop=%v: %d/%d aggregations completed", rate, ok, requests)
			waitFullCapacity(t, peers, cpu, 10*time.Second)
			if rate > 0 {
				// Summed over the user's outgoing links: verdicts are pure
				// functions of (seed, src, dst, n), so a single link that
				// carries only a dozen packets can draw no drop at 10 %.
				st := fab.PacketStatsFrom(nodeName(4))
				if st.Sent == 0 || st.Dropped == 0 {
					t.Fatalf("packet plane never engaged: %+v", st)
				}
			}
		})
	}
}

// TestChaosUDPDuplicationNeverDoubleReserves hammers the at-most-once
// contract directly: with heavy packet duplication (and no loss),
// every reserve datagram reaches the host at least twice, yet each
// session books capacity exactly once.
func TestChaosUDPDuplicationNeverDoubleReserves(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.EnablePackets(faults.PacketConfig{DupRate: 1.0}); err != nil {
		t.Fatal(err)
	}
	const cpu = 100
	peers := udpChaosCluster(t, fab, 3, cpu, nil)
	w := chaosInst("work#0", "work", "A", "B", 30)
	if err := peers[1].Provide(w); err != nil {
		t.Fatal(err)
	}
	user := peers[2]
	for i := 0; i < 4; i++ {
		plan, err := user.Aggregate([]service.Name{"work"}, chaosQoS, 150*time.Millisecond)
		if err != nil {
			t.Fatalf("request %d failed under pure duplication: %v", i, err)
		}
		if plan.Peers[0] != peers[1].Addr() {
			t.Fatalf("request %d landed on %s", i, plan.Peers[0])
		}
		// While the session is live, exactly one reservation's worth of
		// capacity is gone — a duplicated reserve that executed twice
		// would show 40 reserved instead of 30.
		if av := peers[1].Available(); av[0] != cpu-30 {
			t.Fatalf("request %d: provider available %v, want %v (double-booked?)", i, av, cpu-30)
		}
		waitFullCapacity(t, peers, cpu, 5*time.Second)
	}
	st := fab.PacketStatsFor(nodeName(2), nodeName(1))
	if st.Duplicated == 0 {
		t.Fatal("duplication plane never engaged")
	}
}

// TestChaosUDPPartitionHealMembership is the partition-heal convergence
// invariant over the packet plane: a cut at the datagram level makes
// RPCs time out rather than fail at dial, but membership must still
// end up asymmetric during the cut and fully converged after healing.
func TestChaosUDPPartitionHealMembership(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.EnablePackets(faults.PacketConfig{}); err != nil {
		t.Fatal(err)
	}
	short := func(i int, cfg *netproto.Config) {
		cfg.RPCTimeout = 300 * time.Millisecond
		cfg.Retry = netproto.RetryPolicy{Attempts: 2, BaseDelay: 5 * time.Millisecond}
		cfg.Wire.RetransmitBudget = 2
	}
	peers := udpChaosCluster(t, fab, 3, 100, short)

	cfg := netproto.Config{
		Listen: "127.0.0.1:0", Network: "udp", CPU: 100, Memory: 100,
		Wire: netproto.WireConfig{
			AckTimeout:       15 * time.Millisecond,
			PacketFilter:     fab.PacketNode(nodeName(3)),
			RetransmitBudget: 2,
		},
	}
	short(3, &cfg)
	d, err := netproto.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	fab.Register(nodeName(3), d.Addr())
	fab.CutBoth(nodeName(3), nodeName(2))

	if err := d.Join(peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if !hasMember(d, peers[2].Addr()) {
		t.Fatal("joiner did not learn the partitioned member from the bootstrap")
	}
	if hasMember(peers[2], d.Addr()) {
		t.Fatal("announcement crossed a datagram-level cut")
	}

	fab.HealAll()
	if err := d.Join(peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	all := append(peers, d)
	for i, p := range all {
		for j, q := range all {
			if i == j {
				continue
			}
			if !hasMember(p, q.Addr()) {
				t.Fatalf("after heal+rejoin, peer %d does not know peer %d", i, j)
			}
		}
	}
}

// TestChaosUDPPacketVerdictDeterministic pins the packet-plane replay
// contract: the verdict stream per link is a pure function of the seed.
func TestChaosUDPPacketVerdictDeterministic(t *testing.T) {
	mk := func(seed uint64) *faults.Fabric {
		fab, err := faults.New(faults.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := fab.EnablePackets(faults.PacketConfig{
			DropRate: 0.2, DupRate: 0.2, ReorderRate: 0.2}); err != nil {
			t.Fatal(err)
		}
		return fab
	}
	a, b, c := mk(1), mk(1), mk(2)
	same, diff := true, false
	for n := uint64(1); n <= 200; n++ {
		va := a.PacketVerdict("n0", "n1", n)
		if vb := b.PacketVerdict("n0", "n1", n); va != vb {
			same = false
		}
		if vc := c.PacketVerdict("n0", "n1", n); va != vc {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different packet verdict streams")
	}
	if !diff {
		t.Fatal("different seeds produced identical packet verdict streams")
	}
	if v := mk(3).PacketVerdict("n0", "n1", 1); v != mk(3).PacketVerdict("n0", "n1", 1) {
		t.Fatal("verdict not stable across fabric instances")
	}
}

// TestPacketConfigValidate is the edge table for the packet plane.
func TestPacketConfigValidate(t *testing.T) {
	bad := []faults.PacketConfig{
		{DropRate: -0.1},
		{DropRate: 1.1},
		{DupRate: 2},
		{ReorderRate: -1},
		{ReorderDelay: -time.Second},
	}
	for i, cfg := range bad {
		fab, err := faults.New(faults.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fab.EnablePackets(cfg); err == nil {
			t.Errorf("case %d: invalid packet config accepted: %+v", i, cfg)
		}
	}
	fab, err := faults.New(faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.EnablePackets(faults.PacketConfig{DropRate: 0.5, DupRate: 0.5, ReorderRate: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Without EnablePackets the filter is a transparent no-op.
	bare, err := faults.New(faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v := bare.PacketVerdict("a", "b", 1); v != (netproto.PacketDecision{}) {
		t.Fatalf("disabled packet plane returned %+v", v)
	}
	if st := bare.PacketStatsFor("a", "b"); st != (faults.PacketStats{}) {
		t.Fatalf("disabled packet plane has stats %+v", st)
	}
}
