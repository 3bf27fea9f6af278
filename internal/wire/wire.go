// Package wire is the QSA prototype's wire plane: the RPC message
// structs every peer exchanges, plus two interchangeable codecs for
// them — the original newline-delimited JSON encoding (the rollback
// format) and a compact binary encoding (fixed little-endian header,
// varint-encoded fields, CRC32C trailer) built for heavy traffic.
//
// The package is deliberately a leaf: standard library only, no
// dependency on the rest of the repo, so the transport layer
// (internal/netproto) and the fault plane (internal/faults) can both
// sit on top of it without cycles. Domain conversions (wire.Instance
// ↔ service.Instance) stay in netproto.
//
// Codec negotiation is by first byte on the wire: a JSON message
// starts with '{' (0x7B), a binary message with the magic byte 0x51
// ('Q'). A server therefore decodes either format without
// configuration, which is what makes the binary rollout reversible —
// see DESIGN.md §6.2.
package wire

// Message type strings — the RPC vocabulary of the prototype. The
// strings are the JSON wire values; the binary codec maps them to the
// one-byte kinds below.
const (
	TypeJoin      = "join"      // announce a member; response carries membership
	TypeLeave     = "leave"     // graceful departure announcement
	TypeLookup    = "lookup"    // discover a peer's registrations of a service
	TypeProbe     = "probe"     // resource availability + uptime
	TypeSelect    = "select"    // continue hop-by-hop selection at this peer
	TypeReserve   = "reserve"   // reserve resources for a session
	TypeRelease   = "release"   // drop a session's reservation early
	TypeAggregate = "aggregate" // run a full aggregation at the serving peer
)

// Binary message kinds: the one-byte encoding of the Type string in
// the binary header. KindOther carries the literal string in the body
// so arbitrary (e.g. future or fuzzed) types still round-trip.
const (
	KindOther byte = iota
	KindJoin
	KindLeave
	KindLookup
	KindProbe
	KindSelect
	KindReserve
	KindRelease
	KindAggregate
)

// kindTypes maps each binary kind to its Type string. KindOther's is
// empty: its string travels in the body.
var kindTypes = [...]string{KindJoin: TypeJoin, KindLeave: TypeLeave, KindLookup: TypeLookup,
	KindProbe: TypeProbe, KindSelect: TypeSelect, KindReserve: TypeReserve,
	KindRelease: TypeRelease, KindAggregate: TypeAggregate}

// kindOf maps a Type string to its binary kind.
func kindOf(typ string) byte {
	for k := KindJoin; int(k) < len(kindTypes); k++ {
		if kindTypes[k] == typ {
			return k
		}
	}
	return KindOther
}

// typeOf maps a binary kind back to its Type string ("" for KindOther
// and for kinds this codec does not know).
func typeOf(kind byte) string {
	if int(kind) < len(kindTypes) {
		return kindTypes[kind]
	}
	return ""
}

// Idempotent reports whether an RPC type may be retransmitted without
// changing the outcome. Every RPC of the vocabulary is, reserve
// included (the host keys it by session and hop), except two: select
// (a duplicate would re-run the downstream selection recursion) and
// aggregate (it admits a session, so a duplicate would book a second
// one). The UDP transport consults this — via the header flag the codec
// sets — to decide whether a lost datagram may be resent.
func Idempotent(typ string) bool {
	k := kindOf(typ)
	return k != KindOther && k != KindSelect && k != KindAggregate
}

// Param is the wire form of one QoS parameter.
type Param struct {
	Name string  `json:"name"`
	Sym  string  `json:"sym,omitempty"`
	Lo   float64 `json:"lo,omitempty"`
	Hi   float64 `json:"hi,omitempty"`
}

// Instance is the wire form of a service instance specification.
type Instance struct {
	ID      string  `json:"id"`
	Service string  `json:"service"`
	Qin     []Param `json:"qin"`
	Qout    []Param `json:"qout"`
	CPU     float64 `json:"cpu"`
	Memory  float64 `json:"memory"`
	Kbps    float64 `json:"kbps"`
}

// Cand is one candidate considered during a selection hop, with the Φ
// value it scored (when probed) and why it was or was not chosen.
type Cand struct {
	Addr   string  `json:"addr"`
	Phi    float64 `json:"phi,omitempty"`
	Reason string  `json:"reason"`
}

// Hop is the decision record of one distributed selection hop,
// carried back through the select recursion when the initiator asked
// for tracing (Request.Trace). Idx is the 0-based instance index in
// aggregation-flow order; At is the peer that executed the step.
type Hop struct {
	Idx    int    `json:"idx"`
	At     string `json:"at"`
	Inst   string `json:"inst"`
	Chosen string `json:"chosen,omitempty"`
	Mode   string `json:"mode,omitempty"`
	Cands  []Cand `json:"cands,omitempty"`
}

// Request is the wire envelope for every RPC.
type Request struct {
	Type string `json:"type"`

	// join
	Addr string `json:"addr,omitempty"`

	// lookup
	Service string `json:"service,omitempty"`

	// select
	Instances  []Instance          `json:"instances,omitempty"`
	Candidates map[string][]string `json:"candidates,omitempty"` // instance ID -> provider addrs
	Idx        int                 `json:"idx,omitempty"`        // select: the hop to choose; reserve: the hop to book
	Chain      []string            `json:"chain,omitempty"`
	UserAddr   string              `json:"user_addr,omitempty"`
	Trace      bool                `json:"trace,omitempty"` // carry Hop decision records back

	// reserve / release
	SessionID   string  `json:"session_id,omitempty"`
	InstanceID  string  `json:"instance_id,omitempty"`
	CPU         float64 `json:"cpu,omitempty"`
	Memory      float64 `json:"memory,omitempty"`
	DurationSec float64 `json:"duration_sec,omitempty"`

	// Causal trace context (optional): the caller's trace and current
	// span, so the serving peer can parent its spans under the request's
	// tree (DESIGN §8). Zero means untraced. In JSON the fields simply
	// omit when zero — a peer built without them ignores the extras — and
	// the binary codec gates them behind FlagTraceCtx at the body tail.
	TraceID uint64 `json:"trace_id,omitempty"`
	SpanID  uint64 `json:"span_id,omitempty"`

	// Serving plane (aggregate, DESIGN §4.3; lookup carries Services
	// too). In JSON the fields omit when zero; the binary codec gates
	// them behind FlagServing at the body tail, after the trace context.
	Services  []string `json:"services,omitempty"`  // aggregate: abstract path; lookup: services wanted
	MinRate   float64  `json:"min_rate,omitempty"`  // aggregate: end-to-end rate floor
	Priority  int      `json:"priority,omitempty"`  // aggregate: higher is more important
	Deadline  float64  `json:"deadline,omitempty"`  // aggregate: client latency budget, seconds
	DTolerant bool     `json:"dtolerant,omitempty"` // aggregate: disruption-tolerant flow
}

// Offer is one (instance, provider) discovery result.
type Offer struct {
	Instance Instance `json:"instance"`
	Provider string   `json:"provider"`
}

// Response is the wire envelope for every reply.
type Response struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`

	Members []string `json:"members,omitempty"`
	Offers  []Offer  `json:"offers,omitempty"`

	// probe
	Avail     []float64 `json:"avail,omitempty"`
	UptimeSec float64   `json:"uptime_sec,omitempty"`

	// select
	Chain []string `json:"chain,omitempty"`
	Hops  []Hop    `json:"hops,omitempty"` // per-hop decision records (Request.Trace)

	// Serving plane (aggregate replies and backpressure, DESIGN §4.3).
	// Shed marks a request refused by admission control; RetryAfterSec
	// is the server's deterministic backoff hint. In JSON the fields
	// omit when zero; the binary codec gates them behind FlagServing.
	SessionID     string  `json:"session_id,omitempty"`
	Cost          float64 `json:"cost,omitempty"`
	Shed          bool    `json:"shed,omitempty"`
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
}

// Codec encodes and decodes the RPC envelopes. Append* appends one
// framed message to dst (reusing its capacity) and returns the
// extended slice; Decode* overwrites every field of the destination
// struct, reusing its slice and map capacity where the codec supports
// it. reqID is the request correlation ID carried by the binary
// header (JSON carries none: the JSON codec ignores it and reports 0,
// and a JSON connection runs one exchange at a time).
type Codec interface {
	// Name is the codec's configuration name: "json" or "binary".
	Name() string
	AppendRequest(dst []byte, reqID uint64, req *Request) ([]byte, error)
	AppendResponse(dst []byte, reqID uint64, resp *Response) ([]byte, error)
	DecodeRequest(data []byte, req *Request) (reqID uint64, err error)
	DecodeResponse(data []byte, resp *Response) (reqID uint64, err error)
}
