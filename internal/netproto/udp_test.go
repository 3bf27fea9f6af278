package netproto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wire"
)

// udpCluster starts n peers speaking binary over the reliable-datagram
// stack, joined into one overlay. Every peer records wire metrics.
func udpCluster(t *testing.T, n int, cpu float64, wc WireConfig) ([]*Peer, []*obs.Registry) {
	t.Helper()
	peers := make([]*Peer, n)
	regs := make([]*obs.Registry, n)
	for i := range peers {
		regs[i] = obs.NewRegistry()
		p, err := Start(Config{
			Listen: "127.0.0.1:0", Network: "udp",
			CPU: cpu, Memory: cpu,
			RPCTimeout: 2 * time.Second,
			Wire:       wc,
			Metrics:    regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[i] = p
		if i > 0 {
			if err := p.Join(peers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return peers, regs
}

// TestUDPAggregateEndToEnd runs the full two-tier flow — join, lookup
// fan-out, probe, hop-by-hop select, reserve — entirely over UDP with
// the binary codec.
func TestUDPAggregateEndToEnd(t *testing.T) {
	peers, regs := udpCluster(t, 5, 200, WireConfig{})
	src := inst("source#0", "source", "RAW", "MPEG", 50, 40)
	snk := inst("player#0", "player", "MPEG", "SCREEN", 30, 30)
	for _, p := range peers[0:2] {
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
	plan, err := user.Aggregate([]service.Name{"source", "player"}, userQoS, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Peers) != 2 || plan.Instances[0] != "source#0" || plan.Instances[1] != "player#0" {
		t.Fatalf("plan = %+v", plan)
	}
	reserved := false
	for _, p := range peers {
		if p.ActiveSessions() > 0 {
			reserved = true
		}
	}
	if !reserved {
		t.Fatal("no reservations placed")
	}
	// The initiator sent binary bytes for at least lookup and probe.
	for _, typ := range []string{"lookup", "probe"} {
		if regs[4].Counter("wire.bytes_sent."+typ).Value() == 0 {
			t.Fatalf("no wire bytes accounted for %s", typ)
		}
	}
	// Tear down the session over UDP as well (covers release + dedup
	// bookkeeping on the hosts).
	if _, err := rpcWith(user.cfg.Transport, user.codec, wireTele{}, plan.Peers[0],
		request{Type: msgRelease, SessionID: plan.SessionID}, time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryOverTCP pins the third transport corner: binary framing on
// a stream socket (rpcWith's ReadFrame path, the server's sniffing).
func TestBinaryOverTCP(t *testing.T) {
	var peers []*Peer
	for i := 0; i < 3; i++ {
		p, err := Start(Config{Listen: "127.0.0.1:0", Codec: "binary",
			CPU: 100, Memory: 100, RPCTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
		if i > 0 {
			if err := p.Join(peers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := peers[1].Provide(inst("source#0", "source", "RAW", "MPEG", 10, 40)); err != nil {
		t.Fatal(err)
	}
	plan, err := peers[2].Aggregate([]service.Name{"source"}, userQoS, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Peers) != 1 || plan.Peers[0] != peers[1].Addr() {
		t.Fatalf("plan = %+v", plan)
	}
}

// TestJSONOverUDP pins codec/transport independence: JSON messages ride
// the datagram stack single-shot (their header carries no readable
// idempotency flag, so they never retransmit, but they must work).
func TestJSONOverUDP(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp", Codec: "json",
		CPU: 10, Memory: 10, RPCTimeout: 2 * time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	q, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp", Codec: "json",
		CPU: 10, Memory: 10, RPCTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	if err := q.Join(p.Addr()); err != nil {
		t.Fatal(err)
	}
	if m := q.Members(); len(m) != 1 || m[0] != p.Addr() {
		t.Fatalf("members = %v", m)
	}
}

// countingFilter applies a fixed decision to the first n matching data
// packets and counts everything it sees.
type countingFilter struct {
	mu       sync.Mutex
	decide   func(seen int, size int) PacketDecision
	seen     int
	dropped  int
	duplated int
}

func (f *countingFilter) Packet(dst string, size int) PacketDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.decide(f.seen, size)
	f.seen++
	if d.Drop {
		f.dropped++
	}
	if d.Duplicate {
		f.duplated++
	}
	return d
}

// TestUDPRetransmitRecoversDrop drops the first outgoing datagram of
// every exchange on the client side; idempotent RPCs must recover via
// retransmission and the retransmit counter must show it.
func TestUDPRetransmitRecoversDrop(t *testing.T) {
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10, RPCTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })

	filter := &countingFilter{decide: func(seen, size int) PacketDecision {
		return PacketDecision{Drop: seen == 0}
	}}
	reg := obs.NewRegistry()
	client, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10, RPCTimeout: 2 * time.Second, Metrics: reg,
		Wire: WireConfig{AckTimeout: 20 * time.Millisecond, PacketFilter: filter}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	if err := client.Join(server.Addr()); err != nil {
		t.Fatal(err)
	}
	if filter.dropped == 0 {
		t.Fatal("filter never dropped")
	}
	if reg.Counter("wire.retransmits").Value() == 0 {
		t.Fatal("drop recovered without a recorded retransmit")
	}
}

// dstFilter records the destination of every datagram it passes.
type dstFilter struct {
	mu   sync.Mutex
	dsts map[string]int
}

func (f *dstFilter) Packet(dst string, size int) PacketDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dsts == nil {
		f.dsts = make(map[string]int)
	}
	f.dsts[dst]++
	return PacketDecision{}
}

// udpReaders counts the goroutines running a UDPTransport's reader.
func udpReaders() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*UDPTransport).readLoop(")
}

// TestUDPSharedEndpoint pins the transport's one endpoint: concurrent
// RPCs reach the server from a single source address, and Close — of
// a bare transport, a Peer or a Client — fails the exchanges still
// waiting at once and leaves no reader goroutine running.
func TestUDPSharedEndpoint(t *testing.T) {
	sources := &dstFilter{}
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp", CPU: 10, Memory: 10,
		Wire: WireConfig{PacketFilter: sources}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	readers := udpReaders()

	tr := NewUDPTransport(WireConfig{})
	bin := wire.NewBinary()
	const concurrent = 16
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		go func() {
			_, err := rpcWith(tr, bin, wireTele{}, server.Addr(), request{Type: msgProbe}, 2*time.Second)
			errs <- err
		}()
	}
	for i := 0; i < concurrent; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	_, port, err := net.SplitHostPort(tr.local)
	if err != nil {
		t.Fatal(err)
	}
	sources.mu.Lock()
	if len(sources.dsts) != 1 {
		t.Errorf("server answered %d source addresses, want 1: %v", len(sources.dsts), sources.dsts)
	}
	for dst, n := range sources.dsts {
		if !strings.HasSuffix(dst, ":"+port) || n != concurrent {
			t.Errorf("server sent %d datagrams to %s, want %d to the endpoint %s", n, dst, concurrent, tr.local)
		}
	}
	sources.mu.Unlock()

	// A socket that never answers holds exchanges in flight until Close.
	hole, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hole.Close() })
	const wait = 30 * time.Second
	peer, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp", CPU: 10, Memory: 10})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{Target: hole.LocalAddr().String(), Network: "udp", Timeout: wait})
	if err != nil {
		t.Fatal(err)
	}
	owners := []struct {
		name  string
		tr    *UDPTransport
		call  func() error
		close func()
	}{
		{"transport", tr, func() error {
			_, err := rpcWith(tr, bin, wireTele{}, hole.LocalAddr().String(), request{Type: msgProbe}, wait)
			return err
		}, func() { tr.Close() }},
		{"peer", peer.udp, func() error {
			_, err := peer.rpc(hole.LocalAddr().String(), request{Type: msgProbe}, wait)
			return err
		}, func() { peer.Close() }},
		{"client", client.udp, func() error {
			_, err := client.Aggregate(AggRequest{Services: []string{"x"}})
			return err
		}, client.Close},
	}
	for _, o := range owners {
		const inFlight = 3
		errs := make(chan error, inFlight)
		for i := 0; i < inFlight; i++ {
			go func() { errs <- o.call() }()
		}
		for {
			o.tr.mu.Lock()
			n := len(o.tr.waiting)
			o.tr.mu.Unlock()
			if n == inFlight {
				break
			}
			time.Sleep(time.Millisecond)
		}
		start := time.Now()
		o.close()
		for i := 0; i < inFlight; i++ {
			if err := <-errs; !errors.Is(err, net.ErrClosed) {
				t.Errorf("%s: in-flight exchange ended with %v, want net.ErrClosed", o.name, err)
			}
		}
		if took := time.Since(start); took > wait/10 {
			t.Errorf("%s: in-flight exchanges took %v to fail after Close", o.name, took)
		}
		if _, err := o.tr.Dial(server.Addr(), time.Second); !errors.Is(err, net.ErrClosed) {
			t.Errorf("%s: Dial after Close = %v, want net.ErrClosed", o.name, err)
		}
	}
	if n := udpReaders(); n != readers {
		t.Fatalf("%d transport readers running after Close, want %d", n, readers)
	}
}

// TestUDPPoolConnsIgnored: an explicit PoolConns on a UDP peer builds
// no pool, so sequential RPCs never get a parked one-message conn back.
func TestUDPPoolConnsIgnored(t *testing.T) {
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp", CPU: 10, Memory: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	client, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp", CPU: 10, Memory: 10, PoolConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	for i := 1; i <= 4; i++ {
		if _, err := client.rpc(server.Addr(), request{Type: msgProbe}, 2*time.Second); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
	}
	if client.pool != nil {
		t.Fatal("a UDP peer built a connection pool")
	}
}

// rawExchange drives the server's datagram loop directly: it sends msg
// (pre-encoded) as packets from a plain UDP socket and returns the
// reassembled response message.
type rawClient struct {
	t    *testing.T
	sock *net.UDPConn
	cfg  WireConfig
}

func newRawClient(t *testing.T, server string) *rawClient {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sock.Close() })
	cfg := WireConfig{}
	cfg.fillDefaults()
	return &rawClient{t: t, sock: sock, cfg: cfg}
}

func (rc *rawClient) send(msgID uint64, msg []byte) {
	rc.t.Helper()
	scratch := wire.GetBuf(rc.cfg.MTU)
	defer wire.PutBuf(scratch)
	send := func(b []byte) {
		if _, err := rc.sock.Write(b); err != nil {
			rc.t.Fatal(err)
		}
	}
	if err := sendFragments(&rc.cfg, nil, send, "server", wire.PktData, msgID, msg, scratch); err != nil {
		rc.t.Fatal(err)
	}
}

// recvResponse reads packets until the response message for msgID is
// complete; it reports whether one arrived before the deadline.
func (rc *rawClient) recvResponse(msgID uint64, deadline time.Duration) ([]byte, bool) {
	rc.t.Helper()
	if err := rc.sock.SetReadDeadline(time.Now().Add(deadline)); err != nil {
		rc.t.Fatal(err)
	}
	buf := make([]byte, wire.MaxMTU)
	var asm reassembly
	defer asm.release()
	usable := rc.cfg.MTU - wire.PacketOverhead
	var pkt wire.Packet
	for {
		n, err := rc.sock.Read(buf)
		if err != nil {
			return nil, false
		}
		if err := wire.ParsePacket(buf[:n], &pkt); err != nil || pkt.MsgID != msgID || pkt.Type != wire.PktResp {
			continue
		}
		if asm.add(&pkt, usable) {
			out := append([]byte(nil), asm.buf.B[:asm.msgLen]...)
			return out, true
		}
	}
}

// TestUDPDuplicateReserveBooksOnce: a reserve is idempotent, so its
// dedup entry ends with its handler and the same message delivered
// again (a retransmit after a lost response, or fault-injected
// duplication) runs again — and books nothing, since the host keys the
// reservation by (session, hop). The duplicate gets a fresh OK and the
// ledger is unchanged.
func TestUDPDuplicateReserveBooksOnce(t *testing.T) {
	reg := obs.NewRegistry()
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10, RPCTimeout: 2 * time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })

	bin := wire.NewBinary()
	req := request{Type: msgReserve, SessionID: "raw/1", InstanceID: "x",
		CPU: 4, Memory: 4, DurationSec: 30}
	frame, err := bin.AppendRequest(nil, 7, &req)
	if err != nil {
		t.Fatal(err)
	}

	rc := newRawClient(t, server.Addr())
	for _, what := range []string{"first delivery", "duplicate"} {
		rc.send(99, frame)
		respFrame, ok := rc.recvResponse(99, 2*time.Second)
		if !ok {
			t.Fatalf("no response to the %s", what)
		}
		var resp response
		if _, err := bin.DecodeResponse(respFrame, &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.OK {
			t.Fatalf("%s: reserve failed: %s", what, resp.Err)
		}
		if av := server.Available(); av[0] != 6 {
			t.Fatalf("available after the %s = %v, want 6", what, av)
		}
	}
	if n := reg.Counter("reserve.admitted").Value(); n != 1 {
		t.Fatalf("reserve.admitted = %d, want 1: the duplicate booked again", n)
	}
	// The server keeps no response to resend: the duplicate's answer
	// came from running it again.
	if n := reg.Counter("wire.dups_dropped").Value(); n != 0 {
		t.Fatalf("wire.dups_dropped = %d: a finished idempotent message was suppressed", n)
	}
}

// TestUDPDuplicateAggregateNeverRuns is the single-shot half of the
// dedup contract: an aggregate datagram delivered again after its
// response has arrived (a copy the network held back, with the
// client's ack lost) is dropped, not run. The server keeps the entry
// until the ack or DedupTTL, so the grid holds one session with one
// holding per hop, and the duplicate is counted.
func TestUDPDuplicateAggregateNeverRuns(t *testing.T) {
	const cpu = 100
	peers, regs := udpCluster(t, 3, cpu, WireConfig{})
	srv, providers := peers[0], peers[1:]
	for i, p := range providers {
		if err := p.Provide(inst(fmt.Sprintf("work#%d", i), "work", "A", "B", 5, 50)); err != nil {
			t.Fatal(err)
		}
	}
	bin := wire.NewBinary()
	frame, err := bin.AppendRequest(nil, 7, &request{Type: msgAggregate,
		Services: []string{"work"}, MinRate: 10, DurationSec: 30})
	if err != nil {
		t.Fatal(err)
	}
	rc := newRawClient(t, srv.Addr())
	rc.send(99, frame)
	respFrame, ok := rc.recvResponse(99, 2*time.Second)
	if !ok {
		t.Fatal("no response to the aggregate")
	}
	var resp response
	if _, err := bin.DecodeResponse(respFrame, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("aggregate failed: %s", resp.Err)
	}

	dups := regs[0].Counter("wire.dups_dropped")
	before := dups.Value()
	rc.send(99, frame) // the raw client sends no ack: the server must not forget
	for deadline := time.Now().Add(2 * time.Second); dups.Value() == before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if dups.Value() != before+1 {
		t.Fatalf("wire.dups_dropped %d -> %d: the duplicate aggregate was not suppressed", before, dups.Value())
	}
	if _, ok := rc.recvResponse(99, 100*time.Millisecond); ok {
		t.Fatal("the duplicate aggregate was answered")
	}
	srv.mu.Lock()
	sessions := srv.nextSess
	srv.mu.Unlock()
	if sessions != 1 {
		t.Fatalf("serving peer minted %d sessions, want 1", sessions)
	}
	if n := regs[0].Counter("rpc.reserve.sent").Value(); n != 1 {
		t.Fatalf("serving peer sent %d reserves, want 1", n)
	}
	holdings := 0
	for _, p := range providers {
		p.mu.Lock()
		for _, h := range p.sessions {
			holdings++
			if len(h.hops) != 1 || h.hops[0] != 0 {
				t.Errorf("%s holds hops %v of %s, want [0]", p.Addr(), h.hops, resp.SessionID)
			}
		}
		p.mu.Unlock()
	}
	if holdings != 1 {
		t.Fatalf("providers hold %d sessions, want 1", holdings)
	}
}

// TestUDPDatagramsPerRPC pins what one warm single-fragment exchange
// puts on the wire, both directions counted: an idempotent RPC is its
// request and its response (2 datagrams); a single-shot one adds the
// client's ack-of-response (3), which lets the server forget its dedup
// entry early.
func TestUDPDatagramsPerRPC(t *testing.T) {
	pass := func(int, int) PacketDecision { return PacketDecision{} }
	toServer, toClient := &countingFilter{decide: pass}, &countingFilter{decide: pass}
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10, Wire: WireConfig{PacketFilter: toClient}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	// Far past any loopback round trip: nothing is retransmitted.
	tr := NewUDPTransport(WireConfig{AckTimeout: time.Second, PacketFilter: toServer})
	defer tr.Close()
	bin := wire.NewBinary()
	datagrams := func() int {
		toServer.mu.Lock()
		defer toServer.mu.Unlock()
		toClient.mu.Lock()
		defer toClient.mu.Unlock()
		return toServer.seen + toClient.seen
	}
	for _, c := range []struct {
		req  request
		want int
	}{
		{request{Type: msgProbe}, 2},
		{request{Type: msgProbe}, 2},
		{request{Type: msgAggregate}, 3}, // no services: refused, still answered
	} {
		before := datagrams()
		_, err := rpcWith(tr, bin, wireTele{}, server.Addr(), c.req, 2*time.Second)
		if c.req.Type == msgProbe && err != nil {
			t.Fatal(err)
		}
		if got := datagrams() - before; got != c.want {
			t.Fatalf("%s: %d datagrams, want %d", c.req.Type, got, c.want)
		}
	}
}

// TestUDPFragmentationRoundTrip forces multi-fragment messages both
// ways with a minimum-MTU link and verifies the overlay still works.
func TestUDPFragmentationRoundTrip(t *testing.T) {
	peers, regs := udpCluster(t, 2, 100, WireConfig{MTU: wire.MinMTU})
	long := inst("instance-with-a-rather-long-identifier#0", "source", "RAW", "MPEG", 10, 40)
	if err := peers[0].Provide(long); err != nil {
		t.Fatal(err)
	}
	resp, err := peers[1].rpcRetry(peers[0].Addr(),
		request{Type: msgLookup, Service: "source"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Offers) != 1 || resp.Offers[0].Instance.ID != long.ID {
		t.Fatalf("offers = %+v", resp.Offers)
	}
	sent := regs[1].Counter("wire.frags_sent").Value()
	if sent < 2 {
		t.Fatalf("frags_sent = %d, want multi-fragment traffic", sent)
	}
}

// TestUDPTimeoutOnBlackhole pins the deadline path: a filter that drops
// everything must surface a timeout, not hang.
func TestUDPTimeoutOnBlackhole(t *testing.T) {
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	drop := &countingFilter{decide: func(int, int) PacketDecision {
		return PacketDecision{Drop: true}
	}}
	tr := NewUDPTransport(WireConfig{AckTimeout: 10 * time.Millisecond,
		RetransmitBudget: 1, PacketFilter: drop})
	defer tr.Close()
	_, err = rpcWith(tr, wire.NewBinary(), wireTele{}, server.Addr(),
		request{Type: msgProbe}, 150*time.Millisecond)
	if err == nil {
		t.Fatal("blackholed rpc succeeded")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
}

// TestUDPDelayedDuplicates exercises the reorder/duplicate filter
// verdicts end to end: every packet is delayed and duplicated, and the
// exchange still completes exactly once.
func TestUDPDelayedDuplicates(t *testing.T) {
	reg := obs.NewRegistry()
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	filter := &countingFilter{decide: func(seen, size int) PacketDecision {
		return PacketDecision{Duplicate: true, Delay: time.Duration(1+seen%3) * time.Millisecond}
	}}
	tr := NewUDPTransport(WireConfig{PacketFilter: filter})
	defer tr.Close()
	resp, err := rpcWith(tr, wire.NewBinary(), wireTele{}, server.Addr(),
		request{Type: msgProbe}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("probe = %+v", resp)
	}
}

// TestUDPListenerClose pins listener shutdown: Accept unblocks with
// net.ErrClosed and a second Close is a no-op.
func TestUDPListenerClose(t *testing.T) {
	l, err := listenUDP("127.0.0.1:0", WireConfig{}, wireTele{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close = %v, want net.ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}

// TestReassemblyRejects pins the packet-level validation: inconsistent
// numbering, oversize payloads, duplicates, and forged fragment counts
// must be ignored without growing state.
func TestReassemblyRejects(t *testing.T) {
	const usable = 100
	mk := func(idx, count uint16, n int) *wire.Packet {
		return &wire.Packet{Type: wire.PktData, MsgID: 1, FragIdx: idx,
			FragCount: count, Payload: make([]byte, n)}
	}
	var a reassembly
	defer a.release()
	if a.add(mk(0, 3, usable), usable) {
		t.Fatal("incomplete message reported complete")
	}
	if a.add(mk(0, 3, usable), usable) {
		t.Fatal("duplicate fragment accepted")
	}
	if a.add(mk(1, 4, usable), usable) {
		t.Fatal("inconsistent FragCount accepted")
	}
	if a.add(mk(1, 3, usable+1), usable) {
		t.Fatal("oversize payload accepted")
	}
	if a.add(mk(1, 3, usable-1), usable) {
		t.Fatal("short non-final fragment accepted")
	}
	if !a.add(mk(1, 3, usable), usable) && a.have != 2 {
		t.Fatal("valid middle fragment rejected")
	}
	if !a.add(mk(2, 3, 10), usable) {
		t.Fatal("final fragment did not complete the message")
	}
	if a.msgLen != 2*usable+10 {
		t.Fatalf("msgLen = %d, want %d", a.msgLen, 2*usable+10)
	}

	var forged reassembly
	defer forged.release()
	huge := &wire.Packet{Type: wire.PktData, MsgID: 2, FragIdx: 0,
		FragCount: 65535, Payload: make([]byte, usable)}
	if forged.add(huge, wire.MaxMessage) {
		t.Fatal("forged FragCount accepted")
	}
	if forged.buf != nil {
		t.Fatal("forged FragCount allocated a buffer")
	}
}

// TestWritePacketVerdicts pins the filter mechanics in isolation.
func TestWritePacketVerdicts(t *testing.T) {
	var mu sync.Mutex
	var sent [][]byte
	send := func(b []byte) {
		mu.Lock()
		sent = append(sent, append([]byte(nil), b...))
		mu.Unlock()
	}
	pkt := []byte("packet")
	writePacket(nil, send, "x", pkt)
	writePacket(&countingFilter{decide: func(int, int) PacketDecision {
		return PacketDecision{Drop: true}
	}}, send, "x", pkt)
	writePacket(&countingFilter{decide: func(int, int) PacketDecision {
		return PacketDecision{Duplicate: true}
	}}, send, "x", pkt)
	mu.Lock()
	n := len(sent)
	mu.Unlock()
	if n != 3 { // 1 plain + 0 dropped + 2 duplicated
		t.Fatalf("sends = %d, want 3", n)
	}
	writePacket(&countingFilter{decide: func(int, int) PacketDecision {
		return PacketDecision{Delay: time.Millisecond, Duplicate: true}
	}}, send, "x", pkt)
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		n = len(sent)
		mu.Unlock()
		if n == 5 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n != 5 {
		t.Fatalf("delayed duplicate sends = %d, want 5", n)
	}
}

// TestConfigValidateWireKnobs is the edge-case table for the transport
// and codec configuration of a peer (Config) and of a serving-plane
// client (ClientConfig), which share one set of rules.
func TestConfigValidateWireKnobs(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string // substring of the error; "" means valid
	}{
		{"defaults", Config{}.Validate(), ""},
		{"tcp", Config{Network: "tcp"}.Validate(), ""},
		{"udp", Config{Network: "udp"}.Validate(), ""},
		{"bad network", Config{Network: "sctp"}.Validate(), "unknown network"},
		{"json codec", Config{Codec: "json"}.Validate(), ""},
		{"binary codec", Config{Codec: "binary"}.Validate(), ""},
		{"bad codec", Config{Codec: "protobuf"}.Validate(), "unknown codec"},
		{"mtu below floor", Config{Wire: WireConfig{MTU: wire.MinMTU - 1}}.Validate(), "MTU"},
		{"mtu above ceiling", Config{Wire: WireConfig{MTU: wire.MaxMTU + 1}}.Validate(), "MTU"},
		{"mtu at floor", Config{Wire: WireConfig{MTU: wire.MinMTU}}.Validate(), ""},
		{"mtu at ceiling", Config{Wire: WireConfig{MTU: wire.MaxMTU}}.Validate(), ""},
		{"negative ack timeout", Config{Wire: WireConfig{AckTimeout: -time.Millisecond}}.Validate(), "AckTimeout"},
		{"negative retransmit budget", Config{Wire: WireConfig{RetransmitBudget: -1}}.Validate(), "RetransmitBudget"},
		{"negative dedup ttl", Config{Wire: WireConfig{DedupTTL: -time.Second}}.Validate(), "DedupTTL"},
		{"pool below -1", Config{PoolConns: -2}.Validate(), "PoolConns"},
		{"client defaults", ClientConfig{Target: "x"}.validate(), ""},
		{"client no target", ClientConfig{}.validate(), "target"},
		{"client udp", ClientConfig{Target: "x", Network: "udp"}.validate(), ""},
		{"client bad network", ClientConfig{Target: "x", Network: "sctp"}.validate(), "unknown network"},
		{"client bad codec", ClientConfig{Target: "x", Codec: "protobuf"}.validate(), "unknown codec"},
		{"client negative timeout", ClientConfig{Target: "x", Timeout: -time.Second}.validate(), "negative timeout"},
		{"client unpooled", ClientConfig{Target: "x", PoolConns: -1}.validate(), ""},
		{"client pool below -1", ClientConfig{Target: "x", PoolConns: -2}.validate(), "PoolConns"},
		{"client mtu below floor", ClientConfig{Target: "x", Wire: WireConfig{MTU: wire.MinMTU - 1}}.validate(), "MTU"},
		{"client mtu above ceiling", ClientConfig{Target: "x", Wire: WireConfig{MTU: wire.MaxMTU + 1}}.validate(), "MTU"},
	}
	for _, tc := range cases {
		err := tc.err
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestStartRejectsBadWireConfig pins that Start and NewClient refuse a
// bad MTU instead of silently running with it.
func TestStartRejectsBadWireConfig(t *testing.T) {
	if _, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		Wire: WireConfig{MTU: 10}}); err == nil {
		t.Fatal("Start accepted an impossible MTU")
	}
	if _, err := Start(Config{Listen: "127.0.0.1:0", Network: "quic"}); err == nil {
		t.Fatal("Start accepted an unknown network")
	}
	if _, err := NewClient(ClientConfig{Target: "127.0.0.1:1", Network: "udp",
		Wire: WireConfig{MTU: 10}}); err == nil {
		t.Fatal("NewClient accepted an impossible MTU")
	}
}

// TestUDPBadBinaryRequestSurfacesError pins the server's bad-request
// reply on the binary path: a well-framed but wrong-direction message
// decodes as garbage and must come back as an error response.
func TestUDPBadBinaryRequestSurfacesError(t *testing.T) {
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	bin := wire.NewBinary()
	// A response frame where a request belongs.
	frame, err := bin.AppendResponse(nil, 3, &response{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	rc := newRawClient(t, server.Addr())
	rc.send(41, frame)
	respFrame, ok := rc.recvResponse(41, 2*time.Second)
	if !ok {
		t.Fatal("no reply to malformed binary request")
	}
	var resp response
	if _, err := bin.DecodeResponse(respFrame, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || !strings.Contains(resp.Err, "bad request") {
		t.Fatalf("resp = %+v, want bad-request error", resp)
	}
}

// TestUDPPacketRejectCounters pins the malformed-datagram accounting:
// garbage and CRC-corrupted packets hit distinct counters.
func TestUDPPacketRejectCounters(t *testing.T) {
	reg := obs.NewRegistry()
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	rc := newRawClient(t, server.Addr())
	// Garbage: wrong magic.
	if _, err := rc.sock.Write([]byte("definitely not a packet")); err != nil {
		t.Fatal(err)
	}
	// Valid packet, one payload byte flipped after framing: CRC failure.
	good := wire.AppendPacket(nil, &wire.Packet{Type: wire.PktData, MsgID: 5,
		FragIdx: 0, FragCount: 1, Payload: []byte("hello")})
	good[wire.PacketHeaderSize] ^= 0xFF
	if _, err := rc.sock.Write(good); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("wire.packet_rejects").Value() >= 1 &&
			reg.Counter("wire.crc_failures").Value() >= 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("rejects = %d, crc failures = %d; want >= 1 each",
		reg.Counter("wire.packet_rejects").Value(),
		reg.Counter("wire.crc_failures").Value())
}

// TestUDPConnPlumbing covers the small net.Conn surface of both conn
// types: address accessors, inert deadlines, read-before-write.
func TestUDPConnPlumbing(t *testing.T) {
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	tr := NewUDPTransport(WireConfig{})
	defer tr.Close()
	conn, err := tr.Dial(server.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.LocalAddr() == nil || conn.RemoteAddr() == nil {
		t.Fatal("nil addresses")
	}
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 16)); err == nil {
		t.Fatal("read before request write must fail")
	}

	l, err := listenUDP("127.0.0.1:0", WireConfig{}, wireTele{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if l.Addr() == nil {
		t.Fatal("nil listener address")
	}
	sc := &udpServerConn{l: l, raddr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1}}
	if sc.LocalAddr() == nil || sc.RemoteAddr() == nil {
		t.Fatal("nil server conn addresses")
	}
	if err := sc.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := sc.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if err := sc.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Read(make([]byte, 4)); err == nil {
		t.Fatal("read of empty server conn must report EOF")
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Write([]byte("late")); err == nil {
		t.Fatal("write after close must fail")
	}
	if err := sc.Close(); err != nil {
		t.Fatal("second close must be a no-op")
	}
}

// TestSweepExpiresState pins the lazy sweep: expired dedup entries go
// away, and a flood of half-assembled messages is dropped wholesale.
func TestSweepExpiresState(t *testing.T) {
	l := &udpListener{
		cfg:  WireConfig{DedupTTL: time.Minute},
		asm:  make(map[dedupKey]*reassembly),
		seen: make(map[dedupKey]time.Time),
	}
	l.cfg.fillDefaults()
	l.seen[dedupKey{addr: "old", id: 1}] = time.Now().Add(-time.Second)
	l.seen[dedupKey{addr: "new", id: 2}] = time.Now().Add(time.Hour)
	for i := 0; i < 1025; i++ {
		l.asm[dedupKey{addr: "flood", id: uint64(i)}] = &reassembly{}
	}
	l.mu.Lock()
	l.sweepLocked()
	l.mu.Unlock()
	if _, ok := l.seen[dedupKey{addr: "old", id: 1}]; ok {
		t.Fatal("expired dedup entry survived the sweep")
	}
	if _, ok := l.seen[dedupKey{addr: "new", id: 2}]; !ok {
		t.Fatal("live dedup entry dropped")
	}
	if len(l.asm) != 0 {
		t.Fatalf("half-assembly flood survived: %d entries", len(l.asm))
	}
	// Within the same second the sweep is a no-op.
	l.seen[dedupKey{addr: "old", id: 3}] = time.Now().Add(-time.Second)
	l.mu.Lock()
	l.sweepLocked()
	l.mu.Unlock()
	if _, ok := l.seen[dedupKey{addr: "old", id: 3}]; !ok {
		t.Fatal("sweep ran again within its rate limit")
	}
}

// floodConn is a stream of n bytes that opens a JSON string and never
// closes it or the line, counting what its reader consumes and keeping
// what is written to it.
type floodConn struct {
	net.Conn
	n, read int
	wrote   bytes.Buffer
}

func (c *floodConn) Read(b []byte) (int, error) {
	const open = `{"err":"`
	if c.read >= c.n {
		return 0, io.EOF
	}
	k := min(len(b), c.n-c.read)
	for i := range b[:k] {
		if at := c.read + i; at < len(open) {
			b[i] = open[at]
		} else {
			b[i] = 'x'
		}
	}
	c.read += k
	return k, nil
}

func (c *floodConn) Write(b []byte) (int, error)      { return c.wrote.Write(b) }
func (c *floodConn) Close() error                     { return nil }
func (c *floodConn) SetDeadline(time.Time) error      { return nil }
func (c *floodConn) SetReadDeadline(time.Time) error  { return nil }
func (c *floodConn) SetWriteDeadline(time.Time) error { return nil }

// TestReadJSONResponseBounds pins the JSON read path's guards on both
// sides: a peer that streams 4 MiB without a newline costs the reader at
// most the 1 MiB line bound plus one reader buffer (the client fails the
// exchange; the server answers bad request and hangs up), and malformed
// or missing replies fail the exchange.
func TestReadJSONResponseBounds(t *testing.T) {
	const flood, bound = 4 << 20, wire.MaxLine + readerSize
	client := &floodConn{n: flood}
	dial := transportFunc(func(string, time.Duration) (net.Conn, error) { return client, nil })
	if _, err := rpcWith(dial, wire.JSON{}, wireTele{}, "x", request{Type: msgProbe}, time.Second); !errors.Is(err, wire.ErrLineTooLong) {
		t.Fatalf("flooded client: err = %v, want ErrLineTooLong", err)
	}
	if client.read > bound {
		t.Fatalf("client consumed %d bytes, bound %d", client.read, bound)
	}

	p, err := Start(Config{Listen: "127.0.0.1:0", CPU: 10, Memory: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	server := &floodConn{n: flood}
	p.handle(server)
	if server.read > bound {
		t.Fatalf("server consumed %d bytes, bound %d", server.read, bound)
	}
	var r response
	if _, err := (wire.JSON{}).DecodeResponse(server.wrote.Bytes(), &r); err != nil || !strings.Contains(r.Err, "bad request") {
		t.Fatalf("flooded server replied %q (%v), want a bad-request reply", server.wrote.Bytes(), err)
	}

	for _, reply := range []string{"not json\n", ""} {
		dial := transportFunc(func(string, time.Duration) (net.Conn, error) {
			return &replayConn{r: strings.NewReader(reply)}, nil
		})
		if _, err := rpcWith(dial, wire.JSON{}, wireTele{}, "x", request{Type: msgProbe}, time.Second); err == nil {
			t.Fatalf("reply %q decoded", reply)
		}
	}
}

// replayConn replays a fixed reply and discards what is written to it.
type replayConn struct {
	net.Conn
	r io.Reader
}

func (c *replayConn) Read(b []byte) (int, error)       { return c.r.Read(b) }
func (c *replayConn) Write(b []byte) (int, error)      { return len(b), nil }
func (c *replayConn) Close() error                     { return nil }
func (c *replayConn) SetDeadline(time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }

// TestPeerLocalSurface covers the small local accessors alongside the
// wire work: uptime advances and local reservations move the ledger.
func TestPeerLocalSurface(t *testing.T) {
	p, err := Start(Config{Listen: "127.0.0.1:0", CPU: 10, Memory: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if p.Uptime() < 0 {
		t.Fatal("negative uptime")
	}
	if !p.ReserveLocal(4, 4) {
		t.Fatal("local reserve failed")
	}
	if av := p.Available(); av[0] != 6 {
		t.Fatalf("available = %v, want 6", av)
	}
	p.ReleaseLocal(4, 4)
	if av := p.Available(); av[0] != 10 {
		t.Fatalf("available after release = %v, want 10", av)
	}
}
