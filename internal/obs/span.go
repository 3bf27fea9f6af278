package obs

import (
	"sync/atomic"

	"repro/internal/xrand"
)

// Request tracing: a span is one timed segment of a request's journey
// (a pipeline stage, an RPC leg, a session lifetime), placed in a
// per-request tree by (Trace, Span, Parent) IDs. The tree is the one
// record of a request: its spans carry the outcome, the hop and retry
// events beside them carry what a span cannot.
//
// Determinism: trace IDs are pure functions of (salt, request ID) and
// span IDs are minted from a counter that — in simulator mode — advances
// in event order, the same discipline that makes Tracer emission order
// byte-identical across shard counts (DESIGN §8). Timestamps come from
// the tracer's injected clock, never the wall clock.

// SpanContext is the causal coordinate a request carries across the
// wire: which trace it belongs to and which span is its current parent.
// The zero value means "untraced".
type SpanContext struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context carries a live trace.
func (c SpanContext) Valid() bool { return c.Trace != 0 }

// Spans mints spans for one tracer. A nil *Spans (or one whose tracer
// is nil) is a disabled source: Begin returns an inert Span and End
// no-ops, without allocating — hot paths gate on Enabled() exactly like
// they gate on a nil Tracer.
type Spans struct {
	tr   *Tracer
	salt uint64
	seq  atomic.Uint64
}

// NewSpans returns a span source emitting to tr. salt seeds the ID
// streams: the simulator derives it from the run seed so same-seed runs
// mint identical IDs; the prototype salts with its listen address.
func NewSpans(tr *Tracer, salt uint64) *Spans {
	if tr == nil {
		return nil
	}
	return &Spans{tr: tr, salt: xrand.Mix64(salt ^ 0x5350414e53414c54)}
}

// Enabled reports whether spans will actually be recorded.
func (s *Spans) Enabled() bool { return s != nil && s.tr != nil }

// TraceID returns the deterministic trace ID of request req: a pure
// function of (salt, req), so any component that knows the request ID
// can address its trace without coordination.
func (s *Spans) TraceID(req uint64) uint64 {
	if s == nil {
		return 0
	}
	return nonZero(xrand.MixIndex(s.salt, req))
}

// Span is one in-flight timed segment. It is a plain value — starting
// and ending a span allocates nothing — and the zero Span is inert.
type Span struct {
	src    *Spans
	trace  uint64
	id     uint64
	parent uint64
	req    uint64
	start  float64
}

// Root begins the root span of request req.
func (s *Spans) Root(req uint64) Span {
	if !s.Enabled() {
		return Span{}
	}
	return Span{
		src:   s,
		trace: s.TraceID(req),
		id:    s.nextID(),
		req:   req,
		start: s.tr.Now(),
	}
}

// Join begins a span under ctx: a stage under its request's root, or a
// remote leg whose parent arrived in the RPC envelope. req is the
// request ID (0 when the work is purely remote).
func (s *Spans) Join(ctx SpanContext, req uint64) Span {
	if !s.Enabled() || !ctx.Valid() {
		return Span{}
	}
	return Span{
		src:    s,
		trace:  ctx.Trace,
		id:     s.nextID(),
		parent: ctx.Span,
		req:    req,
		start:  s.tr.Now(),
	}
}

// nextID mints a span ID. The counter is advanced only from serial
// code in simulator mode (see the package comment), so the sequence —
// and therefore every ID — replays identically across shard counts.
func (s *Spans) nextID() uint64 {
	return nonZero(xrand.MixIndex(s.salt^0x1d, s.seq.Add(1)))
}

// nonZero keeps 0 reserved as the "absent" sentinel.
func nonZero(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	return v
}

// Active reports whether ending the span will emit an event.
func (sp Span) Active() bool { return sp.src != nil }

// Context returns the coordinate children of this span should carry —
// over the wire or into a Child call.
func (sp Span) Context() SpanContext {
	return SpanContext{Trace: sp.trace, Span: sp.id}
}

// Child begins a sub-span of sp.
func (sp Span) Child() Span {
	if sp.src == nil {
		return Span{}
	}
	return Span{
		src:    sp.src,
		trace:  sp.trace,
		id:     sp.src.nextID(),
		parent: sp.id,
		req:    sp.req,
		start:  sp.src.tr.Now(),
	}
}

// End closes the span, emitting a KindSpan event. ev carries the
// caller's attributes (Stage, Peer, RPC, OK, Err, ...); End fills Kind,
// Req, the trace coordinates, T, and Duration (T - start, computed
// under one clock reading so timelines reconcile exactly). The zero
// Span ignores End.
func (sp Span) End(ev Event) {
	if sp.src == nil {
		return
	}
	ev.Kind = KindSpan
	if ev.Req == 0 {
		ev.Req = sp.req
	}
	ev.Trace = sp.trace
	ev.Span = sp.id
	ev.Parent = sp.parent
	sp.src.tr.EmitSpan(ev, sp.start)
}
