package netproto

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// This file is the datagram transport of DESIGN.md §6.2: one RPC is one
// message (any codec), a message is 1..n individually-checksummed
// packets (wire.Packet), and reliability is end-to-end per message:
//
//   - the client sends every fragment from its transport's one
//     endpoint, then waits; the endpoint's reader hands each arriving
//     packet to the exchange whose message ID it carries;
//   - the server delivers a reassembled message to the accept loop and
//     sends no ack: the response travels back as PktResp fragments (an
//     implicit ack) and is cached for DedupTTL;
//   - a message whose header carries wire.FlagIdempotent is
//     retransmitted whole, up to RetransmitBudget times, after
//     deterministically-jittered exponential backoff, until its
//     RESPONSE completes, since a lost response is recovered precisely
//     by a duplicate request hitting the server's dedup cache. Select
//     and aggregate (not idempotent — DESIGN.md §6.2) and JSON messages
//     (no readable flag) wait single-shot until the RPC deadline;
//   - duplicate requests (a retransmit that raced the response, or
//     fault-injected duplication) are suppressed by (client address,
//     message ID): the server resends the cached response instead of
//     executing twice. That saves the work and keeps a duplicated
//     select or aggregate from running twice; a duplicated reserve
//     would book nothing anyway, since the host keys it by (session,
//     hop);
//   - the only ack on the wire is the client's ack-of-response, which
//     lets the server forget the dedup entry early.

// PacketDecision is a fault-plane verdict for one outgoing datagram.
type PacketDecision struct {
	// Drop discards the datagram (it is never written to the socket).
	Drop bool
	// Duplicate writes the datagram twice back-to-back.
	Duplicate bool
	// Delay postpones the write, letting later datagrams overtake —
	// the reordering primitive.
	Delay time.Duration
}

// PacketFilter intercepts outgoing datagrams for fault injection.
// internal/faults implements it with seeded, replayable verdicts.
// Filtering only the send side of each host still exercises both
// directions of a flow: the client's filter drops client→server
// packets, the server's drops server→client.
type PacketFilter interface {
	// Packet decides the fate of one size-byte datagram to dst. dst is
	// the dialed peer address when known, else the remote socket
	// address (the client's transport endpoint, for server→client
	// packets).
	Packet(dst string, size int) PacketDecision
}

// WireConfig parameterizes the UDP transport and packet layer. The
// zero value means defaults throughout.
type WireConfig struct {
	// MTU is the maximum datagram size, header included. Messages
	// larger than MTU−wire.PacketOverhead are fragmented. Default
	// 1200 (safe under typical 1500-byte path MTUs with tunnel
	// headroom); bounds [wire.MinMTU, wire.MaxMTU].
	MTU int
	// AckTimeout is the base retransmit backoff: the wait before the
	// first retransmission, doubling each attempt (jittered, capped at
	// 8×). Default 40 ms.
	AckTimeout time.Duration
	// RetransmitBudget is how many times an idempotent message whose
	// response has not arrived is retransmitted after its initial send.
	// Default 3.
	RetransmitBudget int
	// DedupTTL is how long the server remembers a completed message ID
	// (with its cached response) to suppress duplicates. It must
	// comfortably exceed the client's total retransmit horizon.
	// Default 5 s.
	DedupTTL time.Duration
	// PacketFilter, when non-nil, intercepts outgoing datagrams —
	// the fault-injection hook (internal/faults).
	PacketFilter PacketFilter
}

func (w *WireConfig) fillDefaults() {
	if w.MTU == 0 {
		w.MTU = 1200
	}
	if w.AckTimeout == 0 {
		w.AckTimeout = 40 * time.Millisecond
	}
	if w.RetransmitBudget == 0 {
		w.RetransmitBudget = 3
	}
	if w.DedupTTL == 0 {
		w.DedupTTL = 5 * time.Second
	}
}

func (w WireConfig) validate() error {
	if w.MTU != 0 && (w.MTU < wire.MinMTU || w.MTU > wire.MaxMTU) {
		return fmt.Errorf("netproto: MTU %d outside [%d, %d]", w.MTU, wire.MinMTU, wire.MaxMTU)
	}
	if w.AckTimeout < 0 {
		return fmt.Errorf("netproto: negative AckTimeout %v", w.AckTimeout)
	}
	if w.RetransmitBudget < 0 {
		return fmt.Errorf("netproto: negative RetransmitBudget %d", w.RetransmitBudget)
	}
	if w.DedupTTL < 0 {
		return fmt.Errorf("netproto: negative DedupTTL %v", w.DedupTTL)
	}
	return nil
}

// nextUDPMsgID is the process-wide message ID source. Uniqueness per
// client address is all dedup needs; process-wide is stronger, and it
// is what lets a transport's reader route a packet by its ID alone.
var nextUDPMsgID atomic.Uint64

// UDPTransport implements Transport over the reliable-datagram stack.
// It owns one UDP socket for its whole life, opened by the first Dial:
// every exchange sends from it, and one reader goroutine hands each
// arriving packet, by its message ID, to the exchange waiting for it.
// Dial is a table lookup (each target address is resolved once) that
// returns a net.Conn whose Write buffers the request message and whose
// first Read transmits it and blocks for the reassembled response.
// Close releases the socket and the reader; whoever builds a transport
// closes it (Peer and Client close the ones they build).
type UDPTransport struct {
	cfg  WireConfig
	tele wireTele
	// tracer, when set, turns retransmissions into trace events stamped
	// with the trace context the message carried (see traceCarrier).
	tracer *obs.Tracer

	mu      sync.Mutex
	sock    *net.UDPConn // nil until the first Dial
	local   string       // sock's address, the "local" of backoff
	closed  bool
	done    chan struct{}             // closed by Close once sock is open
	targets map[string]netip.AddrPort // dialed address -> resolved
	waiting map[uint64]*udpClientConn // exchanges by message ID
	reader  sync.WaitGroup
}

// NewUDPTransport returns a UDP transport with cfg (zero fields take
// defaults). The caller closes it.
func NewUDPTransport(cfg WireConfig) *UDPTransport {
	cfg.fillDefaults()
	return &UDPTransport{cfg: cfg}
}

// Dial implements Transport. Only the first call opens a socket.
func (t *UDPTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	t.mu.Lock()
	err := t.openLocked()
	to, known := t.targets[addr]
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if !known {
		// Resolved outside the lock: a name lookup must not stall the
		// exchanges of every other target.
		ra, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, err
		}
		ap := ra.AddrPort()
		to = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		t.mu.Lock()
		t.targets[addr] = to
		t.mu.Unlock()
	}
	return &udpClientConn{t: t, to: to, remote: addr, deadline: deadline}, nil
}

// openLocked opens the endpoint and starts its reader, once. sock,
// local and done never change after, so an exchange reads them
// without the lock.
func (t *UDPTransport) openLocked() error {
	if t.closed {
		return net.ErrClosed
	}
	if t.sock != nil {
		return nil
	}
	sock, err := net.ListenUDP("udp", nil)
	if err != nil {
		return err
	}
	t.sock, t.local = sock, sock.LocalAddr().String()
	t.done = make(chan struct{})
	t.targets = make(map[string]netip.AddrPort)
	t.waiting = make(map[uint64]*udpClientConn)
	t.reader.Add(1)
	go t.readLoop(sock)
	return nil
}

// Close closes the endpoint and returns once its reader has exited.
// Exchanges still waiting fail at once with net.ErrClosed, and so does
// every later Dial. A second Close is a no-op.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	sock := t.sock
	if sock != nil {
		close(t.done)
	}
	t.mu.Unlock()
	if sock == nil {
		return nil
	}
	err := sock.Close()
	t.reader.Wait()
	return err
}

// readLoop drains the endpoint until Close.
func (t *UDPTransport) readLoop(sock *net.UDPConn) {
	defer t.reader.Done()
	buf := make([]byte, wire.MaxMTU)
	usable := t.cfg.MTU - wire.PacketOverhead
	var pkt wire.Packet
	for {
		n, err := sock.Read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // a failed receive loses one datagram, which retransmission covers
		}
		if err := wire.ParsePacket(buf[:n], &pkt); err != nil {
			t.tele.packetReject(err)
			continue
		}
		// Only a response ends an exchange; anything else (an older
		// server's ack) is ignored.
		if pkt.Type == wire.PktResp {
			t.deliver(&pkt, usable)
		}
	}
}

// deliver adds one response fragment to the exchange waiting for its
// message ID, and wakes the exchange when the response is complete. The
// exchange's reassembly is touched under t.mu only while it waits, so
// an exchange that gave up (unregister) is never written again.
func (t *UDPTransport) deliver(pkt *wire.Packet, usable int) {
	t.mu.Lock()
	c := t.waiting[pkt.MsgID]
	if c == nil {
		t.mu.Unlock()
		// A duplicate, or a response that outlived its exchange.
		t.tele.dupDropped.Inc()
		return
	}
	t.tele.fragRecv.Inc()
	complete := c.asm.add(pkt, usable)
	if complete {
		delete(t.waiting, pkt.MsgID)
	}
	t.mu.Unlock()
	if complete {
		c.ready <- struct{}{} // buffered for this one send
	}
}

// register enters c as the exchange waiting for a fresh message ID.
func (t *UDPTransport) register(c *udpClientConn) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return net.ErrClosed
	}
	c.msgID = nextUDPMsgID.Add(1)
	c.ready = make(chan struct{}, 1)
	t.waiting[c.msgID] = c
	return nil
}

// unregister removes c from the waiting table if it is still there.
func (t *UDPTransport) unregister(c *udpClientConn) {
	t.mu.Lock()
	if t.waiting[c.msgID] == c {
		delete(t.waiting, c.msgID)
	}
	t.mu.Unlock()
}

// writePacket pushes one framed packet through the fault filter onto
// a send function. Filter verdicts: drop (not written), duplicate
// (written twice), delay (written later from a timer, after any
// packets sent meanwhile — the reorder primitive).
func writePacket(filter PacketFilter, send func([]byte), dst string, pkt []byte) {
	if filter != nil {
		d := filter.Packet(dst, len(pkt))
		if d.Drop {
			return
		}
		if d.Delay > 0 {
			cp := append([]byte(nil), pkt...)
			time.AfterFunc(d.Delay, func() { send(cp) })
			if d.Duplicate {
				cp2 := append([]byte(nil), pkt...)
				time.AfterFunc(d.Delay, func() { send(cp2) })
			}
			return
		}
		if d.Duplicate {
			send(pkt)
		}
	}
	send(pkt)
}

// sendFragments frames msg into MTU-sized packets of ptype and writes
// each through the filter. scratch is reused across calls.
func sendFragments(cfg *WireConfig, frags *obs.Counter, send func([]byte), dst string, ptype byte, msgID uint64, msg []byte, scratch *wire.Buf) error {
	n := wire.Fragments(len(msg), cfg.MTU)
	if n == 0 {
		return fmt.Errorf("netproto: message of %d bytes cannot be fragmented at MTU %d", len(msg), cfg.MTU)
	}
	usable := cfg.MTU - wire.PacketOverhead
	for i := 0; i < n; i++ {
		lo := i * usable
		hi := lo + usable
		if hi > len(msg) {
			hi = len(msg)
		}
		p := wire.Packet{Type: ptype, MsgID: msgID, FragIdx: uint16(i), FragCount: uint16(n), Payload: msg[lo:hi]}
		scratch.B = wire.AppendPacket(scratch.B[:0], &p)
		writePacket(cfg.PacketFilter, send, dst, scratch.B)
		frags.Inc()
	}
	return nil
}

// sendAck writes the client's ack-of-response for msgID, the one ack
// the protocol sends.
func sendAck(cfg *WireConfig, send func([]byte), dst string, msgID uint64, scratch *wire.Buf) {
	p := wire.Packet{Type: wire.PktAck, Flags: wire.AckOfResponse, MsgID: msgID, FragIdx: 0, FragCount: 1}
	scratch.B = wire.AppendPacket(scratch.B[:0], &p)
	writePacket(cfg.PacketFilter, send, dst, scratch.B)
}

// reassembly collects the fragments of one message. Buffer layout:
// fragment i lands at offset i*usable; the final length is known once
// the last fragment arrives.
type reassembly struct {
	buf    *wire.Buf
	got    []bool
	have   int
	total  int
	msgLen int
	sawEnd bool
}

// add integrates one fragment; it reports whether the message is now
// complete. Inconsistent numbering or oversize payloads are ignored
// (false) — a hostile or corrupted-but-CRC-colliding packet cannot
// grow state.
func (a *reassembly) add(p *wire.Packet, usable int) bool {
	if a.total == 0 {
		t := int(p.FragCount)
		if t*usable > wire.MaxMessage+usable {
			// Claimed size exceeds any legal message: refuse before
			// allocating — a forged FragCount must not pin memory.
			return false
		}
		a.total = t
		a.buf = wire.GetBuf(a.total * usable)
		a.buf.B = a.buf.B[:a.total*usable]
		a.got = make([]bool, a.total)
	}
	if int(p.FragCount) != a.total || int(p.FragIdx) >= a.total || len(p.Payload) > usable {
		return false
	}
	last := int(p.FragIdx) == a.total-1
	if !last && len(p.Payload) != usable {
		return false
	}
	if a.got[p.FragIdx] {
		return false
	}
	a.got[p.FragIdx] = true
	a.have++
	copy(a.buf.B[int(p.FragIdx)*usable:], p.Payload)
	if last {
		a.sawEnd = true
		a.msgLen = (a.total-1)*usable + len(p.Payload)
	}
	return a.have == a.total && a.sawEnd
}

func (a *reassembly) release() {
	wire.PutBuf(a.buf)
	a.buf = nil
}

// udpClientConn is one RPC exchange over UDP masquerading as a
// net.Conn: Writes accumulate the request message; the first Read
// triggers transmit + retransmit + response reassembly.
type udpClientConn struct {
	t        *UDPTransport
	to       netip.AddrPort
	remote   string
	deadline time.Time

	// trace and span are the causal context of the request this conn
	// carries (zero for untraced traffic), handed down by rpcWith via
	// CarryTrace so retransmit events land inside the request's tree.
	trace, span uint64

	msgID uint64
	ready chan struct{} // the reader's signal that asm is complete
	asm   reassembly    // the response; the reader's while registered

	wbuf *wire.Buf // request message
	resp *wire.Buf // reassembled response message (owned via asm)
	rlen int
	rpos int
	sent bool
	err  error
}

// traceCarrier is implemented by conns that can attribute transport
// events (retransmits) to the causal trace of the message they carry.
type traceCarrier interface {
	CarryTrace(trace, span uint64)
}

// CarryTrace implements traceCarrier.
func (c *udpClientConn) CarryTrace(trace, span uint64) {
	c.trace, c.span = trace, span
}

func (c *udpClientConn) Write(b []byte) (int, error) {
	if c.wbuf == nil {
		c.wbuf = wire.GetBuf(len(b))
	}
	c.wbuf.B = append(c.wbuf.B, b...)
	return len(b), nil
}

func (c *udpClientConn) Read(b []byte) (int, error) {
	if !c.sent {
		c.sent = true
		c.err = c.exchange()
	}
	if c.err != nil {
		return 0, c.err
	}
	if c.rpos >= c.rlen {
		return 0, io.EOF
	}
	n := copy(b, c.resp.B[c.rpos:c.rlen])
	c.rpos += n
	return n, nil
}

// ReadMessage returns the complete response message, valid until
// Close. rpcWith uses it to skip stream re-framing.
func (c *udpClientConn) ReadMessage() ([]byte, error) {
	if !c.sent {
		c.sent = true
		c.err = c.exchange()
	}
	if c.err != nil {
		return nil, c.err
	}
	c.rpos = c.rlen
	return c.resp.B[:c.rlen], nil
}

// exchange runs the reliability state machine for this message.
func (c *udpClientConn) exchange() error {
	if c.wbuf == nil {
		return fmt.Errorf("netproto: udp read before request write")
	}
	t := c.t
	cfg := &t.cfg
	tele := &t.tele
	msg := c.wbuf.B
	flags, haveFlags := wire.MessageFlags(msg)
	idem := haveFlags && flags&wire.FlagIdempotent != 0
	if err := t.register(c); err != nil {
		return err
	}
	send := func(pkt []byte) { _, _ = t.sock.WriteToUDPAddrPort(pkt, c.to) }

	scratch := wire.GetBuf(cfg.MTU)
	defer wire.PutBuf(scratch)
	if err := sendFragments(cfg, tele.fragSent, send, c.remote, wire.PktData, c.msgID, msg, scratch); err != nil {
		return err
	}

	// Wait until the retransmit horizon (idempotent, budget left) or the
	// RPC deadline. Retransmits continue until the RESPONSE completes:
	// a duplicate request is what makes the server resend its cached
	// response (dedup keeps it from re-running).
	attempt := 0
	horizon := func() (time.Duration, bool) {
		wait := time.Until(c.deadline)
		canRetransmit := idem && attempt < cfg.RetransmitBudget
		if canRetransmit {
			wait = min(wait, backoff(cfg.AckTimeout, 8*cfg.AckTimeout, attempt, t.local, c.remote, attempt))
		}
		return wait, canRetransmit
	}
	wait, canRetransmit := horizon()
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case <-c.ready:
			c.resp, c.rlen = c.asm.buf, c.asm.msgLen
			c.asm.buf = nil // ownership moves to the conn
			// Tell the server its cached response arrived so it can
			// forget the dedup entry early. Best effort.
			sendAck(cfg, send, c.remote, c.msgID, scratch)
			return nil
		case <-t.done:
			return fmt.Errorf("netproto: udp rpc to %s: %w", c.remote, net.ErrClosed)
		case <-timer.C:
		}
		if !time.Now().Before(c.deadline) {
			return fmt.Errorf("netproto: udp rpc to %s timed out: %w", c.remote, os.ErrDeadlineExceeded)
		}
		if canRetransmit {
			attempt++
			tele.retransmit.Inc()
			if tr := t.tracer; tr != nil {
				tr.Emit(obs.Event{Kind: obs.KindRetransmit, Peer: c.remote,
					Attempt: attempt, Trace: c.trace, Span: c.span})
			}
			if err := sendFragments(cfg, tele.fragSent, send, c.remote, wire.PktData, c.msgID, msg, scratch); err != nil {
				return err
			}
		}
		wait, canRetransmit = horizon()
		timer.Reset(wait)
	}
}

// Close ends the exchange: a response still on its way is dropped.
func (c *udpClientConn) Close() error {
	if c.ready != nil {
		c.t.unregister(c)
		c.asm.release()
	}
	wire.PutBuf(c.wbuf)
	wire.PutBuf(c.resp)
	c.wbuf, c.resp = nil, nil
	return nil
}

func (c *udpClientConn) LocalAddr() net.Addr  { return c.t.sock.LocalAddr() }
func (c *udpClientConn) RemoteAddr() net.Addr { return net.UDPAddrFromAddrPort(c.to) }

func (c *udpClientConn) SetDeadline(t time.Time) error {
	c.deadline = t
	return nil
}
func (c *udpClientConn) SetReadDeadline(t time.Time) error  { c.deadline = t; return nil }
func (c *udpClientConn) SetWriteDeadline(t time.Time) error { return nil }

// --- server side -----------------------------------------------------------

// dedupKey identifies a message across retransmissions: the client's
// socket address plus its message ID.
type dedupKey struct {
	addr string
	id   uint64
}

// dedupEntry remembers a completed message until expiry; resp holds
// the encoded response once the handler finished, for resend when a
// duplicate request arrives after the original response was lost.
type dedupEntry struct {
	expires time.Time
	resp    []byte
}

// udpListener implements net.Listener over one UDP socket: a read
// loop reassembles request messages, suppresses duplicates and
// surfaces each complete message as a connection-shaped exchange.
type udpListener struct {
	sock *net.UDPConn
	cfg  WireConfig
	tele wireTele
	// tracer, when set, records duplicate suppressions as trace events.
	// They are unparented: the packet layer suppresses a duplicate by
	// (client address, message ID) without ever decoding the request,
	// so no trace context is available — Peer carries the client addr.
	tracer *obs.Tracer

	acceptCh chan *udpServerConn
	done     chan struct{}
	wg       sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	asm       map[dedupKey]*reassembly
	seen      map[dedupKey]*dedupEntry
	nextSweep time.Time
}

// listenUDP opens the reliable-datagram listener on addr.
func listenUDP(addr string, cfg WireConfig, tele wireTele, tracer *obs.Tracer) (*udpListener, error) {
	cfg.fillDefaults()
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	l := &udpListener{
		sock:     sock,
		cfg:      cfg,
		tele:     tele,
		tracer:   tracer,
		acceptCh: make(chan *udpServerConn, 64),
		done:     make(chan struct{}),
		asm:      make(map[dedupKey]*reassembly),
		seen:     make(map[dedupKey]*dedupEntry),
	}
	l.wg.Add(1)
	go l.readLoop()
	return l, nil
}

// Accept implements net.Listener.
func (l *udpListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acceptCh:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *udpListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.done)
	err := l.sock.Close()
	l.wg.Wait()
	return err
}

// Addr implements net.Listener.
func (l *udpListener) Addr() net.Addr { return l.sock.LocalAddr() }

// readLoop drains the socket until Close. It exits on any socket
// error (the socket is closed exactly by Close).
func (l *udpListener) readLoop() {
	defer l.wg.Done()
	buf := make([]byte, wire.MaxMTU)
	var pkt wire.Packet
	for {
		n, raddr, err := l.sock.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if err := wire.ParsePacket(buf[:n], &pkt); err != nil {
			l.tele.packetReject(err)
			continue
		}
		if !l.handlePacket(raddr, &pkt) {
			return
		}
	}
}

// handlePacket processes one datagram; it reports false when the
// listener shut down mid-delivery.
func (l *udpListener) handlePacket(raddr *net.UDPAddr, pkt *wire.Packet) bool {
	key := dedupKey{addr: raddr.String(), id: pkt.MsgID}
	dst := key.addr
	send := func(b []byte) { _, _ = l.sock.WriteToUDP(b, raddr) }
	switch pkt.Type {
	case wire.PktAck:
		if pkt.Flags&wire.AckOfResponse != 0 {
			l.mu.Lock()
			delete(l.seen, key)
			l.mu.Unlock()
		}
		return true
	case wire.PktData:
		l.tele.fragRecv.Inc()
	default:
		return true // servers never receive PktResp
	}

	l.mu.Lock()
	l.sweepLocked()
	if ent, ok := l.seen[key]; ok {
		// Duplicate of a completed message: resend any cached response,
		// never re-execute.
		resp := ent.resp
		l.mu.Unlock()
		l.tele.dupDropped.Inc()
		if l.tracer != nil {
			l.tracer.Emit(obs.Event{Kind: obs.KindDupReplay, Peer: dst})
		}
		if resp != nil {
			scratch := wire.GetBuf(l.cfg.MTU)
			_ = sendFragments(&l.cfg, l.tele.fragSent, send, dst, wire.PktResp, pkt.MsgID, resp, scratch)
			wire.PutBuf(scratch)
		}
		return true
	}
	a := l.asm[key]
	if a == nil {
		a = &reassembly{}
		l.asm[key] = a
	}
	usable := l.cfg.MTU - wire.PacketOverhead
	if !a.add(pkt, usable) {
		l.mu.Unlock()
		return true
	}
	delete(l.asm, key)
	l.seen[key] = &dedupEntry{expires: time.Now().Add(l.cfg.DedupTTL)}
	l.mu.Unlock()

	conn := &udpServerConn{l: l, raddr: raddr, key: key, msg: a.buf, msgLen: a.msgLen}
	a.buf = nil // ownership moves to the conn
	select {
	case l.acceptCh <- conn:
		return true
	case <-l.done:
		conn.discard()
		return false
	}
}

// sweepLocked lazily expires dedup entries and stale half-assembled
// messages. Runs at most once per second.
func (l *udpListener) sweepLocked() {
	now := time.Now()
	if now.Before(l.nextSweep) {
		return
	}
	l.nextSweep = now.Add(time.Second)
	for k, e := range l.seen {
		if now.After(e.expires) {
			delete(l.seen, k)
		}
	}
	if len(l.asm) > 1024 {
		// A flood of half-messages (lost last fragments) cannot pin
		// memory: drop them all; retransmits rebuild the live ones.
		for k, a := range l.asm {
			a.release()
			delete(l.asm, k)
		}
	}
}

// udpServerConn presents one reassembled request message as a
// net.Conn: Reads drain the message, Writes buffer the response, and
// Close transmits the response fragments and caches them for dedup.
type udpServerConn struct {
	l      *udpListener
	raddr  *net.UDPAddr
	key    dedupKey
	msg    *wire.Buf
	msgLen int
	pos    int
	out    *wire.Buf
	closed bool
}

func (c *udpServerConn) Read(b []byte) (int, error) {
	if c.msg == nil || c.pos >= c.msgLen {
		return 0, io.EOF
	}
	n := copy(b, c.msg.B[c.pos:c.msgLen])
	c.pos += n
	return n, nil
}

func (c *udpServerConn) Write(b []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.out == nil {
		c.out = wire.GetBuf(len(b))
	}
	c.out.B = append(c.out.B, b...)
	return len(b), nil
}

// Close sends the buffered response and retains a copy for duplicate
// suppression until the dedup entry expires or the client acks.
func (c *udpServerConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	l := c.l
	send := func(b []byte) { _, _ = l.sock.WriteToUDP(b, c.raddr) }
	if c.out != nil && len(c.out.B) > 0 {
		// Cache before sending: a duplicate that arrives once the client
		// has the response must find it to resend, not just an ack.
		respCopy := append([]byte(nil), c.out.B...)
		l.mu.Lock()
		if ent, ok := l.seen[c.key]; ok {
			ent.resp = respCopy
		}
		l.mu.Unlock()
		scratch := wire.GetBuf(l.cfg.MTU)
		_ = sendFragments(&l.cfg, l.tele.fragSent, send, c.key.addr, wire.PktResp, c.key.id, c.out.B, scratch)
		wire.PutBuf(scratch)
	}
	c.discard()
	return nil
}

func (c *udpServerConn) discard() {
	wire.PutBuf(c.msg)
	wire.PutBuf(c.out)
	c.msg, c.out = nil, nil
}

func (c *udpServerConn) LocalAddr() net.Addr  { return c.l.sock.LocalAddr() }
func (c *udpServerConn) RemoteAddr() net.Addr { return c.raddr }

// Deadlines are inert: both directions are in-memory copies; the real
// network waiting happened in the listener's read loop.
func (c *udpServerConn) SetDeadline(time.Time) error      { return nil }
func (c *udpServerConn) SetReadDeadline(time.Time) error  { return nil }
func (c *udpServerConn) SetWriteDeadline(time.Time) error { return nil }

// messageConn is implemented by message-oriented conns: the response
// is one complete message, so rpcWith can skip stream re-framing.
type messageConn interface {
	ReadMessage() ([]byte, error)
}
