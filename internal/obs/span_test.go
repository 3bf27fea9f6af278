package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpanLifecycle(t *testing.T) {
	var buf bytes.Buffer
	clock, set := fakeClock()
	set(1.0)
	tr := NewTracer(&buf, clock)
	s := NewSpans(tr, 42)
	if !s.Enabled() {
		t.Fatal("spans with a live tracer must be enabled")
	}

	root := s.Root(7)
	if !root.Active() {
		t.Fatal("root span must be active")
	}
	set(1.5)
	child := root.Child()
	set(2.0)
	child.End(Event{Stage: StageCompose, OK: true})
	set(3.0)
	root.End(Event{OK: true})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	c, r := events[0], events[1]
	if c.Kind != KindSpan || r.Kind != KindSpan {
		t.Fatalf("kinds = %q %q, want span", c.Kind, r.Kind)
	}
	if r.Trace == 0 || r.Span == 0 || r.Parent != 0 {
		t.Fatalf("root coordinates wrong: %+v", r)
	}
	if c.Trace != r.Trace || c.Parent != r.Span {
		t.Fatalf("child not parented under root: child %+v root %+v", c, r)
	}
	if c.Req != 7 || r.Req != 7 {
		t.Fatalf("request ID not propagated: %d %d", c.Req, r.Req)
	}
	// Exact endpoint reconciliation: start == T - Duration.
	if c.T != 2.0 || c.Duration != 0.5 {
		t.Fatalf("child timing: T=%v Duration=%v, want 2.0 and 0.5", c.T, c.Duration)
	}
	if r.T != 3.0 || r.Duration != 2.0 {
		t.Fatalf("root timing: T=%v Duration=%v, want 3.0 and 2.0", r.T, r.Duration)
	}
	if c.Stage != StageCompose {
		t.Fatalf("caller attribute lost: %+v", c)
	}
}

func TestSpanDeterministicIDs(t *testing.T) {
	run := func() []Event {
		var buf bytes.Buffer
		clock, _ := fakeClock()
		tr := NewTracer(&buf, clock)
		s := NewSpans(tr, 99)
		for req := uint64(1); req <= 3; req++ {
			root := s.Root(req)
			root.Child().End(Event{Stage: StageSelection})
			root.End(Event{OK: true})
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		evs, err := ReadEvents(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return evs
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 6 {
		t.Fatalf("got %d and %d events, want 6", len(a), len(b))
	}
	for i := range a {
		if a[i].Trace != b[i].Trace || a[i].Span != b[i].Span ||
			a[i].Parent != b[i].Parent || a[i].Seq != b[i].Seq {
			t.Fatalf("event %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	// Distinct requests land in distinct traces; TraceID is a pure
	// function of (salt, req).
	clock, _ := fakeClock()
	s := NewSpans(NewTracer(&bytes.Buffer{}, clock), 99)
	if s.TraceID(1) == s.TraceID(2) {
		t.Fatal("distinct requests must mint distinct trace IDs")
	}
	if a[1].Trace != s.TraceID(1) || a[3].Trace != s.TraceID(2) {
		t.Fatalf("trace IDs not reproducible from (salt, req): %x vs %x", a[1].Trace, s.TraceID(1))
	}
}

func TestSpanJoinRemoteContext(t *testing.T) {
	var buf bytes.Buffer
	clock, set := fakeClock()
	set(5)
	tr := NewTracer(&buf, clock)
	s := NewSpans(tr, 7)
	ctx := SpanContext{Trace: 0xabcdef, Span: 0x123}
	sp := s.Join(ctx, 0)
	sp.End(Event{Stage: StageSelection, Peer: "10.0.0.2:7"})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil || len(evs) != 1 {
		t.Fatalf("events: %v %v", evs, err)
	}
	if evs[0].Trace != 0xabcdef || evs[0].Parent != 0x123 {
		t.Fatalf("joined span lost the remote context: %+v", evs[0])
	}
	if evs[0].Span == 0 || evs[0].Span == 0x123 {
		t.Fatalf("joined span needs a fresh local ID: %+v", evs[0])
	}
	// An invalid inbound context yields an inert span.
	if s.Join(SpanContext{}, 1).Active() {
		t.Fatal("zero context must not start a span")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *Spans
	if s.Enabled() || s.TraceID(3) != 0 {
		t.Fatal("nil Spans must be fully disabled")
	}
	sp := s.Root(1)
	if sp.Active() {
		t.Fatal("nil source must mint inert spans")
	}
	sp.Child().End(Event{})
	sp.End(Event{OK: true})
	if (sp.Context() != SpanContext{}) {
		t.Fatal("inert span must carry the zero context")
	}
	if (SpanContext{}).Valid() || !(SpanContext{Trace: 1}).Valid() {
		t.Fatal("Valid must key off Trace")
	}
	if NewSpans(nil, 1) != nil {
		t.Fatal("NewSpans(nil tracer) must return the disabled source")
	}
}

func TestSpanEventJSONRoundTrip(t *testing.T) {
	// uint64 IDs above 2^53 must survive the JSON round trip exactly.
	var buf bytes.Buffer
	clock, _ := fakeClock()
	tr := NewTracer(&buf, clock)
	big := uint64(1)<<63 | 12345
	tr.Emit(Event{Kind: KindSpan, Trace: big, Span: big - 1, Parent: big - 2})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if evs[0].Trace != big || evs[0].Span != big-1 || evs[0].Parent != big-2 {
		t.Fatalf("64-bit IDs corrupted by JSON: %+v", evs[0])
	}
}
