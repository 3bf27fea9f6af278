package obs

import (
	"fmt"
	"sort"
)

// Outcomes beyond the failure stages of trace.go.
const (
	// OutcomeSuccess: admitted, and the session span closed OK.
	OutcomeSuccess = "success"
	// OutcomeAdmitted: admitted, and no session span closed — the
	// prototype without session monitoring, or a stream cut short.
	OutcomeAdmitted = "admitted"
	// OutcomePending: the request's root span is not in the stream.
	OutcomePending = "pending"
)

// SpanStageRequest labels the root span's row of the latency table: the
// whole request, issue to admission or failure.
const SpanStageRequest = "request"

// SpanNode is one reconstructed span. Event is the closing KindSpan
// record; the span ran [Start(), End()] on the stream's clock (virtual
// minutes in the simulator, wall seconds since process start in the
// prototype).
type SpanNode struct {
	Event    Event
	Children []*SpanNode // in stream (closing) order
	Events   []Event     // hop and retry events stamped with this span
}

// Start returns the span's start time (T - Duration by construction).
func (n *SpanNode) Start() float64 { return n.Event.T - n.Event.Duration }

// End returns the span's end time.
func (n *SpanNode) End() float64 { return n.Event.T }

// SelfTime is the span's duration not covered by its child spans — the
// time the request spent *at* this node rather than below it. The
// session span outlives the root it hangs under, so it is not counted.
// Clamped at zero: children measured on a remote peer's clock can
// nominally exceed the parent.
func (n *SpanNode) SelfTime() float64 {
	d := n.Event.Duration
	for _, c := range n.Children {
		if c.Event.Stage != StageSession {
			d -= c.Event.Duration
		}
	}
	return max(d, 0)
}

// Request is one request reconstructed from its span tree: the root
// span and everything that parented under it, across however many
// peers the trace crossed, and what the tree says happened.
type Request struct {
	Req     uint64
	Trace   uint64
	Root    *SpanNode   // nil when the root span is not in the stream
	Spans   int         // spans in the tree, root included
	Orphans []*SpanNode // spans whose parent never appeared

	// Outcome is the root's failure stage; for an admitted request,
	// the session span's success or departure, or OutcomeAdmitted
	// while no session span closed; OutcomePending without a root.
	Outcome   string
	Err       string  // the terminal error, when the request failed
	Session   string  // session ID once admitted
	Retries   int     // recompositions: compose spans with Attempt > 0
	Recovered int     // components replaced by runtime recovery
	Events    []Event // hops and retransmissions stamped with the trace
}

// IsFailure reports whether outcome is a terminal failure stage.
func IsFailure(outcome string) bool {
	switch outcome {
	case StageDiscovery, StageCompose, StageSelection, StageAdmission, StageDeparture:
		return true
	}
	return false
}

// CriticalPath is the chain of spans that bounds the request's end:
// from the root, repeatedly descend into the child that ended last,
// passing over the session span. For the serial aggregation pipeline
// this walks request → terminal stage → deepest remote leg; the
// returned slice starts at the root.
func (r *Request) CriticalPath() []*SpanNode {
	if r.Root == nil {
		return nil
	}
	path := []*SpanNode{r.Root}
	for n := r.Root; ; {
		var last *SpanNode
		for _, c := range n.Children {
			if c.Event.Stage != StageSession && (last == nil || c.End() >= last.End()) {
				last = c
			}
		}
		if last == nil {
			return path
		}
		path = append(path, last)
		n = last
	}
}

// StageCount is one per-outcome tally.
type StageCount struct {
	Stage string
	N     int
}

// StageLatency is the duration distribution of one span stage across
// every request, quantile-queryable via LatencyValue.
type StageLatency struct {
	Stage string
	Value LatencyValue
}

// Report is the analysis of one telemetry stream.
type Report struct {
	Requests []*Request     // by request ID, ascending
	Spans    int            // span events seen
	Orphans  int            // spans not attached under any root
	ByStage  []StageCount   // outcomes, canonical order
	Latency  []StageLatency // canonical order: request, then stages
}

// Count returns the number of requests whose outcome is stage.
func (r *Report) Count(stage string) int {
	for _, sc := range r.ByStage {
		if sc.Stage == stage {
			return sc.N
		}
	}
	return 0
}

// Request returns request id, or nil.
func (r *Report) Request(id uint64) *Request {
	for _, o := range r.Requests {
		if o.Req == id {
			return o
		}
	}
	return nil
}

// stageOrder is the canonical outcome order: pipeline stages in failure
// order, then the non-failure outcomes.
var stageOrder = []string{
	StageDiscovery, StageCompose, StageSelection, StageAdmission,
	StageDeparture, OutcomeSuccess, OutcomeAdmitted, OutcomePending,
}

// latencyOrder is the latency table's presentation order.
var latencyOrder = []string{
	SpanStageRequest, StageDiscovery, StageCompose, StageSelection,
	StageAdmission, StageSession, StageRecovery,
}

// Analyze rebuilds every request's span tree from a stream and reads
// its outcome off the tree. Span IDs must be unique within a trace and
// each trace must close at most one root (Parent == 0); spans whose
// parent never appears (a truncated or per-peer partial stream) are
// kept as orphans. A trace with no root and no request ID is another
// peer's request seen only through its remote legs: its spans count as
// orphans, not as a request. Events stamped with a trace attach to the
// request and to the span they name. The latency table covers the
// initiator's spans — remote legs (spans stamped with an At address)
// attribute time to peers, and counting them again would double-book
// the stage they serve.
func Analyze(events []Event) (*Report, error) {
	rep := &Report{}
	type traceState struct {
		req   *Request
		nodes map[uint64]*SpanNode // by span ID
		order []*SpanNode          // stream order
	}
	states := make(map[uint64]*traceState)
	var traceOrder []uint64
	state := func(trace uint64) *traceState {
		st, ok := states[trace]
		if !ok {
			st = &traceState{req: &Request{Trace: trace}, nodes: make(map[uint64]*SpanNode)}
			states[trace] = st
			traceOrder = append(traceOrder, trace)
		}
		return st
	}

	for i, ev := range events {
		if ev.Kind == KindSpan && (ev.Trace == 0 || ev.Span == 0) {
			return nil, fmt.Errorf("obs: event %d: span without trace/span ID", i+1)
		}
		if ev.Trace == 0 {
			continue // untraced: no request to attach to
		}
		st := state(ev.Trace)
		if st.req.Req == 0 {
			st.req.Req = ev.Req
		}
		if ev.Kind != KindSpan {
			st.req.Events = append(st.req.Events, ev)
			continue
		}
		rep.Spans++
		if _, dup := st.nodes[ev.Span]; dup {
			return nil, fmt.Errorf("obs: event %d: duplicate span %x in trace %x", i+1, ev.Span, ev.Trace)
		}
		n := &SpanNode{Event: ev}
		st.nodes[ev.Span] = n
		st.order = append(st.order, n)
		if ev.Parent == 0 {
			if st.req.Root != nil {
				return nil, fmt.Errorf("obs: event %d: second root span in trace %x", i+1, ev.Trace)
			}
			if !ev.OK && ev.Stage == "" {
				return nil, fmt.Errorf("obs: event %d: root span neither admitted nor failed at a stage", i+1)
			}
			st.req.Root = n
		}
	}

	// Attach children and events. Spans close child-before-parent (a
	// child's End precedes its parent's), so parents resolve only after
	// the whole stream is indexed.
	for _, id := range traceOrder {
		st := states[id]
		r := st.req
		for _, n := range st.order {
			if n.Event.Parent == 0 {
				continue
			}
			if p, ok := st.nodes[n.Event.Parent]; ok {
				p.Children = append(p.Children, n)
			} else {
				r.Orphans = append(r.Orphans, n)
			}
		}
		for _, ev := range r.Events {
			if n, ok := st.nodes[ev.Span]; ok {
				n.Events = append(n.Events, ev)
			}
		}
		r.Spans = len(st.order)
		if r.Root == nil && r.Req == 0 {
			rep.Orphans += r.Spans
			continue
		}
		rep.Orphans += len(r.Orphans)
		r.outcome(st.order)
		rep.Requests = append(rep.Requests, r)
	}
	sort.SliceStable(rep.Requests, func(i, j int) bool { return rep.Requests[i].Req < rep.Requests[j].Req })

	counts := make(map[string]int)
	for _, r := range rep.Requests {
		counts[r.Outcome]++
	}
	for _, stage := range ordered(counts, stageOrder) {
		rep.ByStage = append(rep.ByStage, StageCount{Stage: stage, N: counts[stage]})
	}

	hists := make(map[string]*LatencyHist)
	observe := func(stage string, d float64) {
		h, ok := hists[stage]
		if !ok {
			h = NewLatencyHist()
			hists[stage] = h
		}
		h.Observe(d)
	}
	for _, r := range rep.Requests {
		for _, n := range states[r.Trace].order {
			switch {
			case n == r.Root:
				observe(SpanStageRequest, n.Event.Duration)
			case n.Event.Stage != "" && n.Event.At == "":
				observe(n.Event.Stage, n.Event.Duration)
			}
		}
	}
	for _, stage := range ordered(hists, latencyOrder) {
		rep.Latency = append(rep.Latency, StageLatency{Stage: stage, Value: hists[stage].SnapshotValue(stage)})
	}
	return rep, nil
}

// outcome reads the request's outcome off its spans.
func (r *Request) outcome(spans []*SpanNode) {
	switch {
	case r.Root == nil:
		r.Outcome = OutcomePending
	case !r.Root.Event.OK:
		r.Outcome, r.Err = r.Root.Event.Stage, r.Root.Event.Err
	default:
		r.Outcome, r.Session = OutcomeAdmitted, r.Root.Event.Session
	}
	for _, n := range spans {
		ev := n.Event
		switch ev.Stage {
		case StageCompose:
			if ev.Attempt > 0 {
				r.Retries++
			}
		case StageRecovery:
			if ev.OK {
				r.Recovered++
			}
		case StageSession:
			if r.Root == nil || ev.Parent != r.Root.Event.Span {
				break
			}
			if ev.OK {
				r.Outcome = OutcomeSuccess
			} else {
				r.Outcome, r.Err = StageDeparture, ev.Err
			}
		}
	}
}

// ordered returns m's keys: those in canon first, in canon's order,
// then the rest sorted.
func ordered[V any](m map[string]V, canon []string) []string {
	var keys, rest []string
	for _, k := range canon {
		if _, ok := m[k]; ok {
			keys = append(keys, k)
		}
	}
	for k := range m {
		known := false
		for _, c := range canon {
			known = known || c == k
		}
		if !known {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	return append(keys, rest...)
}
