package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Clock supplies event timestamps. The simulator injects its virtual
// clock (simulated minutes) so same-seed runs emit byte-identical
// streams; cmd/qsapeer injects seconds since process start. Package obs
// itself never reads wall time.
type Clock func() float64

// Event kinds, covering the aggregation lifecycle in pipeline order.
const (
	// KindRequest opens a request span: one user request entered the
	// pipeline.
	KindRequest = "request"
	// KindCompose reports one composition attempt (the chosen path and
	// its Definition 3.1 cost, or the failure).
	KindCompose = "compose"
	// KindHop reports one hop-by-hop selection step: the candidate set
	// with Φ values and filter reasons, and the chosen peer.
	KindHop = "hop"
	// KindReserve reports one reservation attempt during admission.
	KindReserve = "reserve"
	// KindRetry reports a recomposition retry (sim) or an RPC
	// retransmission (prototype).
	KindRetry = "retry"
	// KindAdmit reports a successful admission, binding the request to
	// its session ID.
	KindAdmit = "admit"
	// KindRecover reports a runtime recovery attempt for one component
	// of an admitted session.
	KindRecover = "recover"
	// KindEnd closes an admitted session: OK reports whether it ran to
	// completion or was lost to a peer departure.
	KindEnd = "end"
	// KindFail closes a request that was never admitted, with the
	// pipeline stage that rejected it.
	KindFail = "fail"
	// KindSpan closes one timed span of the causal trace: Stage names
	// the pipeline stage (or RPC leg), Duration is its length, and
	// Trace/Span/Parent place it in the request's causal tree. The
	// span's start time is T - Duration by construction.
	KindSpan = "span"
	// KindRetransmit reports one whole-message retransmission at the
	// reliable-UDP layer, stamped with the trace context the message
	// carried (zero for untraced traffic).
	KindRetransmit = "retransmit"
	// KindDupReplay reports a server-side duplicate suppression: a
	// retransmitted request hit the dedup cache and the cached response
	// was replayed instead of re-executing. Unparented — the raw packet
	// layer never decodes the request it suppresses.
	KindDupReplay = "dupreplay"
)

// Failure stages, mirroring core.Stage plus the post-admission
// departure outcome.
const (
	StageDiscovery = "discovery"
	StageCompose   = "compose"
	StageSelection = "selection"
	StageAdmission = "admission"
	StageDeparture = "departure"
	// StageRecovery labels mid-session repair spans (the runtime
	// recovery extension); it never appears as a failure stage.
	StageRecovery = "recovery"
)

// Candidate is one candidate peer considered during a selection hop.
type Candidate struct {
	Peer string `json:"peer"`
	// Phi is the integrated metric value (eq. 4); zero when the
	// candidate was filtered before scoring.
	Phi float64 `json:"phi,omitempty"`
	// Reason explains the candidate's fate: "chosen", "lower-phi",
	// "short-uptime", "infeasible", "no-info", "dead", "self".
	Reason string `json:"reason"`
}

// Event is one decision-trace record. The schema is flat: every kind
// uses the subset of fields it needs and omits the rest, so a stream is
// greppable line by line. Request IDs start at 1 (0 means "no request
// context", e.g. a session-scoped event joined via Session).
type Event struct {
	Seq  uint64  `json:"seq"`
	T    float64 `json:"t"`
	Kind string  `json:"kind"`
	Req  uint64  `json:"req,omitempty"`

	// request
	User     string  `json:"user,omitempty"`
	App      string  `json:"app,omitempty"`
	Level    string  `json:"level,omitempty"`
	Duration float64 `json:"duration,omitempty"`

	// compose / retry
	Attempt int      `json:"attempt,omitempty"`
	Path    []string `json:"path,omitempty"`
	Cost    float64  `json:"cost,omitempty"`

	// hop (1-based, aggregation-flow order)
	Hop    int         `json:"hop,omitempty"`
	Inst   string      `json:"inst,omitempty"`
	At     string      `json:"at,omitempty"`
	Cands  []Candidate `json:"cands,omitempty"`
	Chosen string      `json:"chosen,omitempty"`
	Mode   string      `json:"mode,omitempty"`

	// reserve / recover / retry target
	Peer string `json:"peer,omitempty"`
	RPC  string `json:"rpc,omitempty"`

	// outcome
	OK      bool   `json:"ok,omitempty"`
	Stage   string `json:"stage,omitempty"`
	Err     string `json:"err,omitempty"`
	Session string `json:"session,omitempty"`

	// causal-trace context (KindSpan, and any event stamped with the
	// span it occurred under). 64-bit IDs; 0 means "absent". Encoded as
	// JSON numbers: Go's decoder reads integer digits exactly, so the
	// full uint64 range round-trips.
	Trace  uint64 `json:"trace,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// Tracer writes events as JSON lines, stamping each with the injected
// clock and a monotonic sequence number. It is safe for concurrent use;
// I/O errors are sticky and resurface from Err and Flush. A nil Tracer
// is a disabled sink whose Emit returns immediately.
type Tracer struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	clock Clock
	seq   uint64
	err   error
}

// NewTracer wraps w. clock must be non-nil.
func NewTracer(w io.Writer, clock Clock) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{bw: bw, enc: json.NewEncoder(bw), clock: clock}
}

// Now reads the tracer's clock. Span starts are captured through this
// so that start, end, and every other event of a request sit on one
// timeline (virtual minutes in the simulator, wall seconds since start
// in the prototype). A nil tracer reports 0.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	// The clock is set once at construction and never mutated, so no
	// lock is needed; Clock implementations are safe for concurrent use.
	return t.clock()
}

// Emit stamps and writes one event. The caller fills every field except
// Seq and T.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.emitLocked(ev)
}

// EmitSpan writes a span-closing event: T is stamped from the clock and
// Duration is set to T - start under the same clock reading, so a
// span's endpoints reconcile exactly with the timestamps of the events
// around it (start == T - Duration with no skew).
func (t *Tracer) EmitSpan(ev Event, start float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	ev.T = t.clock()
	ev.Duration = ev.T - start
	if t.err != nil {
		return // sticky: keep sequencing, stop writing
	}
	if err := t.enc.Encode(ev); err != nil {
		t.err = err
	}
}

func (t *Tracer) emitLocked(ev Event) {
	t.seq++
	ev.Seq = t.seq
	ev.T = t.clock()
	if t.err != nil {
		return // sticky: keep sequencing, stop writing
	}
	if err := t.enc.Encode(ev); err != nil {
		t.err = err
	}
}

// Count returns how many events were emitted (including any dropped
// after an I/O error).
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Flush drains buffered output and returns the first error seen.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	t.err = t.bw.Flush()
	return t.err
}

// ReadEvents decodes a whole event stream, requiring strictly
// increasing sequence numbers (a corrupted or interleaved stream fails
// fast instead of producing a silently wrong analysis).
func ReadEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []Event
	var prev uint64
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("obs: event %d: %w", len(out)+1, err)
		}
		if ev.Kind == "" {
			return nil, fmt.Errorf("obs: event %d: missing kind", len(out)+1)
		}
		if ev.Seq <= prev {
			return nil, fmt.Errorf("obs: event %d: sequence %d not increasing", len(out)+1, ev.Seq)
		}
		prev = ev.Seq
		out = append(out, ev)
	}
	return out, nil
}
