package netproto

import (
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// MeteredTransport wraps any Transport — including the fault-injecting
// one from internal/faults — and counts dial attempts and failures into
// an obs registry. Start installs it automatically when Config.Metrics
// is set, so drop/partition effects injected below the RPC layer show up
// as transport.dial_failures without the fault plane knowing about
// telemetry.
type MeteredTransport struct {
	Inner Transport
	// Dials counts every dial attempt; Failures the subset that returned
	// an error. Nil counters disable the accounting.
	Dials, Failures *obs.Counter
}

// NewMeteredTransport wraps inner with counters from reg
// (transport.dials, transport.dial_failures).
func NewMeteredTransport(inner Transport, reg *obs.Registry) MeteredTransport {
	return MeteredTransport{
		Inner:    inner,
		Dials:    reg.Counter("transport.dials"),
		Failures: reg.Counter("transport.dial_failures"),
	}
}

// Dial implements Transport.
func (m MeteredTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	m.Dials.Inc()
	conn, err := m.Inner.Dial(addr, timeout)
	if err != nil {
		m.Failures.Inc()
	}
	return conn, err
}

// peerTele bundles a peer's metric instruments with the counter names
// pre-resolved at construction, so the RPC hot path does no map work in
// the registry. Every instrument is nil-safe and a nil map yields nil
// instruments, so the zero value (telemetry disabled) no-ops at every
// call site.
type peerTele struct {
	rpcSent    map[string]*obs.Counter // rpc.<type>.sent
	rpcFailed  map[string]*obs.Counter // rpc.<type>.failed
	rpcRetried map[string]*obs.Counter // rpc.<type>.retried
	// rpcLatency is log-bucketed (obs.LatencyHist) rather than a
	// fixed-bounds Histogram, so /metrics and qsastat can report
	// p50/p99/p999 without pre-chosen bucket bounds.
	rpcLatency *obs.LatencyHist // rpc.latency_seconds

	// lookupFail counts members dropped from an aggregation's discovery
	// because their lookup failed after retries.
	lookupFail *obs.Counter // discovery.lookup_failed

	stageLat map[string]*obs.LatencyHist // agg.stage_seconds.<stage>
	aggLat   *obs.LatencyHist            // agg.latency_seconds

	probeHits, probeMisses *obs.Counter // probe.cache_hits / probe.cache_misses
	admitOK, admitRejected *obs.Counter // reserve.admitted / reserve.rejected
	selection              obs.SelectionCounters

	compose obs.ComposeCounters

	// Serving plane (DESIGN §4.3): admission outcomes, queue wait, and
	// end-to-end serve latency split by clamped priority class.
	serveAdmit *obs.Counter            // serve.admitted
	serveSheds map[string]*obs.Counter // serve.shed.<reason>
	serveWait  *obs.LatencyHist        // serve.queue_wait_seconds
	serveLat   [4]*obs.LatencyHist     // serve.latency_seconds.p<class>
	serveDepth *obs.Gauge              // serve.queue_depth

	wire wireTele
}

var msgTypes = []string{msgJoin, msgLeave, msgLookup, msgProbe, msgSelect, msgReserve, msgRelease, msgAggregate}

// shedReasons mirrors the shed* constants for counter pre-resolution.
var shedReasons = []string{shedQueueFull, shedEvicted, shedDeadline, shedShutdown}

func newPeerTele(reg *obs.Registry) peerTele {
	t := peerTele{
		rpcSent:       make(map[string]*obs.Counter, len(msgTypes)),
		rpcFailed:     make(map[string]*obs.Counter, len(msgTypes)),
		rpcRetried:    make(map[string]*obs.Counter, len(msgTypes)),
		rpcLatency:    reg.Latency("rpc.latency_seconds"),
		lookupFail:    reg.Counter("discovery.lookup_failed"),
		aggLat:        reg.Latency("agg.latency_seconds"),
		probeHits:     reg.Counter("probe.cache_hits"),
		probeMisses:   reg.Counter("probe.cache_misses"),
		admitOK:       reg.Counter("reserve.admitted"),
		admitRejected: reg.Counter("reserve.rejected"),
		selection:     obs.NewSelectionCounters(reg),
		compose:       obs.NewComposeCounters(reg),
		serveAdmit:    reg.Counter("serve.admitted"),
		serveSheds:    make(map[string]*obs.Counter, len(shedReasons)),
		serveWait:     reg.Latency("serve.queue_wait_seconds"),
		serveDepth:    reg.Gauge("serve.queue_depth"),
		wire:          newWireTele(reg),
	}
	for _, r := range shedReasons {
		t.serveSheds[r] = reg.Counter("serve.shed." + r)
	}
	for c := range t.serveLat {
		t.serveLat[c] = reg.Latency("serve.latency_seconds.p" + string(rune('0'+c)))
	}
	for _, m := range msgTypes {
		t.rpcSent[m] = reg.Counter("rpc." + m + ".sent")
		t.rpcFailed[m] = reg.Counter("rpc." + m + ".failed")
		t.rpcRetried[m] = reg.Counter("rpc." + m + ".retried")
	}
	t.stageLat = make(map[string]*obs.LatencyHist)
	for _, s := range []string{obs.StageDiscovery, obs.StageCompose, obs.StageSelection, obs.StageAdmission} {
		t.stageLat[s] = reg.Latency("agg.stage_seconds." + s)
	}
	return t
}

// wireTele is the wire plane's instrument bundle: message-level bytes
// per RPC type plus the datagram-layer health counters (fragments,
// retransmits, suppressed duplicates, CRC failures). Like peerTele, its
// zero value no-ops, so the transport never branches on whether
// telemetry is configured.
type wireTele struct {
	bytesSent map[string]*obs.Counter // wire.bytes_sent.<type>
	bytesRecv map[string]*obs.Counter // wire.bytes_recv.<type>
	otherSent *obs.Counter            // wire.bytes_sent.other
	otherRecv *obs.Counter            // wire.bytes_recv.other

	fragSent   *obs.Counter // wire.frags_sent
	fragRecv   *obs.Counter // wire.frags_recv
	retransmit *obs.Counter // wire.retransmits
	dupDropped *obs.Counter // wire.dups_dropped
	crcFail    *obs.Counter // wire.crc_failures
	pktReject  *obs.Counter // wire.packet_rejects (malformed, non-CRC)

	connDials  *obs.Counter // wire.conn_dials (pool misses: real dials)
	connReuses *obs.Counter // wire.conn_reuses (pool hits)
}

func newWireTele(reg *obs.Registry) wireTele {
	t := wireTele{
		bytesSent:  make(map[string]*obs.Counter, len(msgTypes)),
		bytesRecv:  make(map[string]*obs.Counter, len(msgTypes)),
		otherSent:  reg.Counter("wire.bytes_sent.other"),
		otherRecv:  reg.Counter("wire.bytes_recv.other"),
		fragSent:   reg.Counter("wire.frags_sent"),
		fragRecv:   reg.Counter("wire.frags_recv"),
		retransmit: reg.Counter("wire.retransmits"),
		dupDropped: reg.Counter("wire.dups_dropped"),
		crcFail:    reg.Counter("wire.crc_failures"),
		pktReject:  reg.Counter("wire.packet_rejects"),
		connDials:  reg.Counter("wire.conn_dials"),
		connReuses: reg.Counter("wire.conn_reuses"),
	}
	for _, m := range msgTypes {
		t.bytesSent[m] = reg.Counter("wire.bytes_sent." + m)
		t.bytesRecv[m] = reg.Counter("wire.bytes_recv." + m)
	}
	return t
}

// message accounts one encoded message: n bytes of the given RPC
// type, received (recv) or sent. A type without its own counter lands
// in the "other" bucket.
func (t wireTele) message(typ string, n int, recv bool) {
	var c *obs.Counter
	if recv {
		c = t.bytesRecv[typ]
		if c == nil {
			c = t.otherRecv
		}
	} else {
		c = t.bytesSent[typ]
		if c == nil {
			c = t.otherSent
		}
	}
	c.Add(uint64(n))
}

// packetReject classifies a ParsePacket failure: CRC mismatches get
// their own counter (the corruption signal); everything else counts
// as a generic reject.
func (t wireTele) packetReject(err error) {
	if err == wire.ErrCRC {
		t.crcFail.Inc()
	} else {
		t.pktReject.Inc()
	}
}

// observeRPC accounts one RPC exchange. An unknown message type falls
// through to the nil counter no-op.
func (t *peerTele) observeRPC(typ string, d time.Duration, err error) {
	t.rpcSent[typ].Inc()
	if err != nil {
		t.rpcFailed[typ].Inc()
	}
	t.rpcLatency.Observe(d.Seconds())
}

// serveClass clamps a wire priority into the four reported classes.
func serveClass(priority int) int {
	if priority < 0 {
		return 0
	}
	if priority > 3 {
		return 3
	}
	return priority
}
