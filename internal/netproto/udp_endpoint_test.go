package netproto_test

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/obs"
)

// TestUDPResponsePackets pins what a server puts on the wire and what a
// client's endpoint does with a duplicate. Every server→client datagram
// is duplicated. The server's datagrams are its response fragments
// alone: it sends no ack. Each duplicate arrives after its exchange
// completed, so the client's endpoint drops it by message ID and counts
// it; one that reached a later exchange would fail that exchange's
// correlation check.
func TestUDPResponsePackets(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.EnablePackets(faults.PacketConfig{DupRate: 1}); err != nil {
		t.Fatal(err)
	}
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	peers := udpChaosCluster(t, fab, 2, 100, func(i int, cfg *netproto.Config) {
		cfg.Metrics = regs[i]
		// Far past any loopback round trip: no retransmission, so every
		// request reaches the server once.
		cfg.Wire.AckTimeout = time.Second
		if i == 1 {
			cfg.Wire.PacketFilter = nil // the client's datagrams go out once
		}
	})
	server, client := peers[0], peers[1]
	const joins = 8
	for i := 0; i < joins; i++ {
		if err := client.Join(server.Addr()); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	exchanges := uint64(1 + joins) // the cluster's own join included
	// The server counts a fragment once it is written, which can be
	// after the client already has it.
	sent := regs[0].Counter("wire.frags_sent")
	for deadline := time.Now().Add(2 * time.Second); sent.Value() < exchanges && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	frags := sent.Value()
	if frags != exchanges {
		t.Fatalf("server sent %d response fragments for %d exchanges", frags, exchanges)
	}
	if st := fab.PacketStatsFrom(nodeName(0)); st.Sent != frags || st.Duplicated != frags {
		t.Fatalf("server datagrams %+v, want exactly its %d response fragments, each duplicated", st, frags)
	}
	dups := regs[1].Counter("wire.dups_dropped")
	for deadline := time.Now().Add(2 * time.Second); dups.Value() < frags && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := dups.Value(); got != frags {
		t.Fatalf("client dropped %d duplicate responses, want %d", got, frags)
	}
	if failed := regs[1].Counter("rpc.join.failed").Value(); failed != 0 {
		t.Fatalf("%d joins failed", failed)
	}
}
