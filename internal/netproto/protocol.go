// Package netproto is a working network prototype of the QSA model — the
// prototype the paper leaves as future work ("we will implement a
// prototype of our model and test it in the real Internet environment",
// §6). Peers are real processes (or in-process instances) speaking
// either newline-delimited JSON over TCP (the rollback format) or the
// compact binary framing from internal/wire over TCP or reliable UDP:
//
//   - membership: a joiner contacts any bootstrap peer and announces
//     itself to the membership it learns (full membership at prototype
//     scale, standing in for the simulator's DHT);
//   - discovery: the requesting peer sends every member one lookup that
//     names every service of the path, and bins the (instance spec,
//     provider) offers that come back into one layer per path position;
//   - probing: candidates are probed — resource availability and
//     uptime from the response, network quality from the measured RTT;
//   - composition: QCS runs on the requesting peer over the discovered
//     layers (package compose);
//   - peer selection: hop-by-hop over the network — each selected peer
//     receives the select request, probes ITS candidates with ITS own
//     measurements, picks the Φ-best, and forwards the request, exactly
//     the paper's distributed reverse-flow procedure;
//   - admission: reservations are placed on each selected peer for the
//     session duration and auto-expire.
//
// Substitutions relative to the simulator, documented per DESIGN.md §6.2:
// the network term of Φ uses 100/(1+RTT_ms) as the available-bandwidth
// proxy (a prototype cannot know pairwise bottleneck bandwidth without a
// measurement service like Nettimer, the paper's [12]).
//
// Every RPC dials through an injectable Transport (default: plain TCP;
// internal/faults supplies a deterministic fault-injecting one, and
// UDPTransport the datagram stack from DESIGN.md §6.2), and the
// idempotent messages (probe, lookup, join, leave, reserve, release)
// retry transport failures with bounded exponential backoff — select
// and aggregate never do (see RetryPolicy).
//
// A server never needs codec configuration: the first byte of a message
// distinguishes JSON ('{') from a binary frame (0x51), and the reply
// uses whatever codec the request arrived in. Stream connections are
// read through small pooled readers (getReader), so an exchange of a few
// hundred bytes allocates about that much.
package netproto

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/wire"
)

// The RPC message vocabulary now lives in internal/wire (the leaf
// package both codecs encode); these aliases keep netproto's public
// surface and its call sites unchanged.
type (
	// WireParam is the wire form of one QoS parameter.
	WireParam = wire.Param
	// WireInstance is the wire form of a service instance specification.
	WireInstance = wire.Instance
	// WireCand is one candidate considered during a selection hop.
	WireCand = wire.Cand
	// WireHop is the decision record of one distributed selection hop.
	WireHop = wire.Hop

	request  = wire.Request
	response = wire.Response
	offer    = wire.Offer
)

// Message types.
const (
	msgJoin    = wire.TypeJoin
	msgLeave   = wire.TypeLeave
	msgLookup  = wire.TypeLookup
	msgProbe   = wire.TypeProbe
	msgSelect  = wire.TypeSelect
	msgReserve = wire.TypeReserve
	msgRelease = wire.TypeRelease
	// Serving plane (DESIGN §4.3).
	msgAggregate = wire.TypeAggregate
)

func toWireParams(v qos.Vector) []WireParam {
	out := make([]WireParam, len(v))
	for i, p := range v {
		out[i] = WireParam{Name: p.Name, Sym: p.Sym, Lo: p.Lo, Hi: p.Hi}
	}
	return out
}

func fromWireParams(ps []WireParam) (qos.Vector, error) {
	params := make([]qos.Param, len(ps))
	for i, p := range ps {
		if p.Sym != "" {
			params[i] = qos.Sym(p.Name, p.Sym)
		} else {
			if p.Hi < p.Lo {
				return nil, fmt.Errorf("netproto: inverted range %q", p.Name)
			}
			params[i] = qos.Range(p.Name, p.Lo, p.Hi)
		}
	}
	return qos.NewVector(params...)
}

// ToWire converts an instance to its wire form.
func ToWire(in *service.Instance) WireInstance {
	return WireInstance{
		ID:      in.ID,
		Service: string(in.Service),
		Qin:     toWireParams(in.Qin),
		Qout:    toWireParams(in.Qout),
		CPU:     in.R[resource.CPU],
		Memory:  in.R[resource.Memory],
		Kbps:    in.OutKbps,
	}
}

// FromWire converts a wire instance back to the domain type.
func FromWire(w WireInstance) (*service.Instance, error) {
	qin, err := fromWireParams(w.Qin)
	if err != nil {
		return nil, err
	}
	qout, err := fromWireParams(w.Qout)
	if err != nil {
		return nil, err
	}
	in := &service.Instance{
		ID:      w.ID,
		Service: service.Name(w.Service),
		Qin:     qin,
		Qout:    qout,
		R:       resource.Vec2(w.CPU, w.Memory),
		OutKbps: w.Kbps,
	}
	return in, in.Validate()
}

// nextReqID correlates binary requests with responses across the
// process (the JSON codec, one exchange per connection, ignores it).
var nextReqID atomic.Uint64

// rpcWith performs one request/response exchange with addr through tr
// using codec, accounting message-level wire bytes into wt (the zero
// value disables). Encode buffers are pooled; the steady-state binary
// encode/decode path allocates only the response struct the caller
// keeps.
func rpcWith(tr Transport, codec wire.Codec, wt wireTele, addr string, req request, timeout time.Duration) (*response, error) {
	conn, err := tr.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if tc, ok := conn.(traceCarrier); ok {
		// Hand the causal context down to the datagram layer, so a
		// retransmission of this message surfaces inside the request's
		// span tree rather than as an anonymous transport event.
		tc.CarryTrace(req.TraceID, req.SpanID)
	}
	deadline := time.Now().Add(timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	buf := wire.GetBuf(512)
	defer wire.PutBuf(buf)
	reqID := nextReqID.Add(1)
	buf.B, err = codec.AppendRequest(buf.B[:0], reqID, &req)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(buf.B); err != nil {
		return nil, err
	}
	wt.message(req.Type, len(buf.B), false)
	// One read step for both codecs: a message-oriented transport (UDP)
	// hands over the reassembled response whole; a stream is re-framed by
	// the codec's framing (readMessage).
	var msg []byte
	if mc, ok := conn.(messageConn); ok {
		msg, err = mc.ReadMessage()
	} else {
		br := getReader(conn)
		buf.B, err = readMessage(br, codec, buf.B)
		putReader(br)
		msg = buf.B
	}
	if err != nil {
		return nil, err
	}
	var resp response
	gotID, err := codec.DecodeResponse(msg, &resp)
	if err != nil {
		return nil, err
	}
	// JSON carries no correlation ID (it reports 0); a binary reply must
	// echo the request's.
	if _, isJSON := codec.(wire.JSON); !isJSON && gotID != reqID {
		return nil, fmt.Errorf("netproto: response correlation mismatch (%d != %d)", gotID, reqID)
	}
	wt.message(req.Type, len(msg), true)
	markReusable(conn)
	if !resp.OK {
		return &resp, fmt.Errorf("netproto: %s failed at %s: %s", req.Type, addr, resp.Err)
	}
	return &resp, nil
}

// readerSize is the buffer of a pooled stream reader. It is a read-ahead
// window, not a message bound: wire.ReadLine and wire.ReadFrame both
// read past it, so wire.MaxLine (1 MiB) and wire.MaxMessage stay the
// limits, and an RPC of a few hundred bytes (the common case) does not
// pay for a 64 KiB buffer.
const readerSize = 4 << 10

var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readerSize) }}

// getReader checks a stream reader out of the pool onto r. The caller
// hands it back with putReader when the exchange (client) or the
// connection (server) ends.
func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// putReader returns br to the pool, dropping its reference to the
// connection (and any bytes read ahead, which belong to a stream the
// caller is done with).
func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// markReusable tells a pooled connection (see connPool) the exchange
// completed cleanly — the stream is still message-aligned, so Close
// may park it for reuse instead of tearing it down. A plain net.Conn
// ignores this.
func markReusable(conn net.Conn) {
	if rc, ok := conn.(interface{ Reusable() }); ok {
		rc.Reusable()
	}
}

// readMessage reads one message in codec's stream framing into buf
// (reusing its capacity): a newline-terminated line of at most
// wire.MaxLine bytes for JSON, a binary frame otherwise. Client and
// server both read through it, so the JSON line bound has one owner.
func readMessage(br *bufio.Reader, codec wire.Codec, buf []byte) ([]byte, error) {
	if _, isJSON := codec.(wire.JSON); isJSON {
		return wire.ReadLine(br, buf)
	}
	return wire.ReadFrame(br, buf)
}
