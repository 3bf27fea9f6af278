package obs

import (
	"math"
	"strings"
	"testing"
)

// span builds a KindSpan event closing at t with the given duration.
func span(seq, req, trace, id, parent uint64, t, dur float64, stage string) Event {
	return Event{Seq: seq, T: t, Kind: KindSpan, Req: req,
		Trace: trace, Span: id, Parent: parent, Duration: dur, Stage: stage}
}

// with applies f to ev and returns it.
func with(ev Event, f func(*Event)) Event {
	f(&ev)
	return ev
}

func TestAnalyzeOutcomes(t *testing.T) {
	ok := func(ev *Event) { ev.OK = true }
	evs := []Event{
		// req 1: composed, admitted, completed (with one recovery).
		span(1, 1, 0xa, 2, 1, 0, 0, StageCompose),
		{Seq: 2, Kind: KindHop, Req: 1, Trace: 0xa, Span: 3, Hop: 2, Inst: "b", Chosen: "9", Mode: "informed"},
		{Seq: 3, Kind: KindHop, Req: 1, Trace: 0xa, Span: 3, Hop: 1, Inst: "a", Chosen: "4", Mode: "fallback"},
		with(span(4, 1, 0xa, 3, 1, 0, 0, StageSelection), ok),
		with(span(5, 1, 0xa, 1, 0, 0, 0, ""), func(ev *Event) { ev.OK, ev.User, ev.App, ev.Session = true, "7", "app1", "0" }),
		with(span(6, 1, 0xa, 5, 4, 1, 0, StageRecovery), func(ev *Event) { ev.OK, ev.Peer = true, "12" }),
		with(span(7, 1, 0xa, 4, 1, 2, 2, StageSession), ok),
		// req 2: compose failed.
		with(span(8, 2, 0xb, 1, 0, 3, 0, StageCompose), func(ev *Event) { ev.Err = "no QoS-consistent path" }),
		// req 3: recomposed once, then selection failed.
		with(span(9, 3, 0xc, 2, 1, 4, 0, StageCompose), ok),
		with(span(10, 3, 0xc, 3, 1, 4, 0, StageCompose), func(ev *Event) { ev.OK, ev.Attempt = true, 1 }),
		with(span(11, 3, 0xc, 1, 0, 4, 0, StageSelection), func(ev *Event) { ev.Err = "no selectable peer" }),
		// req 4: admitted then lost to a departure.
		with(span(12, 4, 0xd, 1, 0, 5, 0, ""), func(ev *Event) { ev.OK, ev.Session = true, "1" }),
		with(span(13, 4, 0xd, 2, 1, 6, 1, StageSession), func(ev *Event) { ev.Err = "host departed" }),
		// req 5: admitted, stream ends before the session does; an RPC
		// retry under its admission span must not count as a
		// recomposition.
		{Seq: 14, Kind: KindRetry, Trace: 0xe, Span: 2, Attempt: 2, RPC: "probe", Peer: "8"},
		with(span(15, 5, 0xe, 2, 1, 7, 0, StageAdmission), ok),
		with(span(16, 5, 0xe, 1, 0, 7, 0, ""), func(ev *Event) { ev.OK, ev.Session = true, "2" }),
	}
	rep, err := Analyze(evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Requests) != 5 {
		t.Fatalf("requests = %d, want 5", len(rep.Requests))
	}
	for id, want := range map[uint64]string{
		1: OutcomeSuccess, 2: StageCompose, 3: StageSelection,
		4: StageDeparture, 5: OutcomeAdmitted,
	} {
		o := rep.Request(id)
		if o == nil || o.Outcome != want {
			t.Fatalf("req %d outcome = %+v, want %s", id, o, want)
		}
	}
	if o := rep.Request(1); o.Recovered != 1 || o.Session != "0" || len(o.Events) != 2 {
		t.Fatalf("req 1 = %+v", o)
	}
	if sel := rep.Request(1).Root.Children[1]; sel.Event.Stage != StageSelection || len(sel.Events) != 2 {
		t.Fatalf("hop events not under their selection span: %+v", sel)
	}
	if o := rep.Request(3); o.Retries != 1 || !IsFailure(o.Outcome) || o.Err != "no selectable peer" {
		t.Fatalf("req 3 = %+v", o)
	}
	if o := rep.Request(4); o.Err != "host departed" || o.Session != "1" {
		t.Fatalf("req 4 = %+v", o)
	}
	if o := rep.Request(5); o.Retries != 0 || len(o.Root.Children[0].Events) != 1 {
		t.Fatalf("req 5 = %+v (an RPC retry is not a recomposition)", o)
	}
	// Canonical stage order: failures in pipeline order, then outcomes.
	wantOrder := []string{StageCompose, StageSelection, StageDeparture, OutcomeSuccess, OutcomeAdmitted}
	if len(rep.ByStage) != len(wantOrder) {
		t.Fatalf("ByStage = %+v", rep.ByStage)
	}
	for i, w := range wantOrder {
		if rep.ByStage[i].Stage != w || rep.ByStage[i].N != 1 {
			t.Fatalf("ByStage[%d] = %+v, want %s/1", i, rep.ByStage[i], w)
		}
	}
	if rep.Count(StageCompose) != 1 || rep.Count(StageDiscovery) != 0 {
		t.Fatal("Count accessor disagrees with ByStage")
	}
}

func TestAnalyzeFailWithoutStage(t *testing.T) {
	_, err := Analyze([]Event{span(1, 1, 0xa, 1, 0, 0, 0, "")})
	if err == nil || !strings.Contains(err.Error(), "neither admitted nor failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestAnalyzeIgnoresUnboundSessions(t *testing.T) {
	// A remote peer's stream holds only its legs of other peers'
	// requests (no root, no request ID): they are orphans, not requests.
	rep, err := Analyze([]Event{
		with(span(1, 0, 0xa, 5, 4, 1, 0.5, StageAdmission), func(ev *Event) { ev.At = "p1" }),
		{Seq: 2, Kind: KindRetry, Trace: 0xa, Span: 5, RPC: "release"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Requests) != 0 || rep.Orphans != 1 {
		t.Fatalf("requests = %d, orphans = %d; want 0, 1", len(rep.Requests), rep.Orphans)
	}
}

func TestAnalyzeSpansTree(t *testing.T) {
	// Request 1: root with three sequential stage children, one of which
	// (selection) has a remote hop leg underneath, then a session span
	// that outlives the root; success.
	// Request 2: a discovery failure, root only.
	events := []Event{
		span(1, 1, 0xa, 10, 2, 3.0, 0.5, StageDiscovery),
		span(2, 1, 0xa, 11, 2, 4.0, 1.0, StageCompose),
		{Seq: 3, T: 4.8, Kind: KindSpan, Req: 1, Trace: 0xa, Span: 13, Parent: 12,
			Duration: 0.3, Stage: StageSelection, Hop: 1, At: "10.0.0.2:1"},
		span(4, 1, 0xa, 12, 2, 5.0, 1.0, StageSelection),
		with(span(5, 1, 0xa, 2, 0, 6.0, 4.0, ""), func(ev *Event) { ev.OK, ev.Session = true, "s1" }),
		with(span(6, 2, 0xb, 3, 0, 7.0, 0.25, StageDiscovery), func(ev *Event) { ev.Err = "no candidates" }),
		with(span(7, 1, 0xa, 14, 2, 9.0, 3.0, StageSession), func(ev *Event) { ev.OK = true }),
	}
	rep, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != 7 || rep.Orphans != 0 || len(rep.Requests) != 2 {
		t.Fatalf("spans=%d orphans=%d requests=%d", rep.Spans, rep.Orphans, len(rep.Requests))
	}
	r := rep.Request(1)
	if r == nil || r.Trace != 0xa || r.Spans != 6 {
		t.Fatalf("request 1 malformed: %+v", r)
	}
	if r.Outcome != OutcomeSuccess {
		t.Fatalf("request 1 outcome %q", r.Outcome)
	}
	if got := rep.Request(2).Outcome; got != StageDiscovery {
		t.Fatalf("request 2 outcome %q", got)
	}
	if rep.Count(OutcomeSuccess) != 1 || rep.Count(StageDiscovery) != 1 {
		t.Fatalf("outcome tally wrong: %+v", rep.ByStage)
	}

	// Children attach in the order they closed.
	root := r.Root
	order := []string{StageDiscovery, StageCompose, StageSelection, StageSession}
	if len(root.Children) != len(order) {
		t.Fatalf("root has %d children", len(root.Children))
	}
	for i, c := range root.Children {
		if c.Event.Stage != order[i] {
			t.Fatalf("child %d is %q, want %q", i, c.Event.Stage, order[i])
		}
	}
	sel := root.Children[2]
	if len(sel.Children) != 1 || sel.Children[0].Event.At != "10.0.0.2:1" {
		t.Fatalf("hop leg not attached under selection: %+v", sel.Children)
	}

	// Start/End/SelfTime arithmetic: selection ran [4,5] with a 0.3 hop
	// leg inside, so its self time is 0.7.
	if sel.Start() != 4.0 || sel.End() != 5.0 {
		t.Fatalf("selection interval [%g,%g]", sel.Start(), sel.End())
	}
	if got := sel.SelfTime(); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("selection self time %g, want 0.7", got)
	}
	// Root self time: 4.0 - (0.5+1.0+1.0) = 1.5 (the hop leg is the
	// selection stage's business, and the session span comes after).
	if got := root.SelfTime(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("root self time %g, want 1.5", got)
	}

	// Critical path: root -> selection (ended last, the session span
	// passed over) -> its hop leg.
	cp := r.CriticalPath()
	if len(cp) != 3 || cp[0] != root || cp[1] != sel || cp[2] != sel.Children[0] {
		t.Fatalf("critical path wrong: %d nodes", len(cp))
	}

	// Latency rows: request row counts both roots; the hop leg (At set)
	// must not pollute the selection stage's distribution.
	byStage := map[string]LatencyValue{}
	for _, sl := range rep.Latency {
		byStage[sl.Stage] = sl.Value
	}
	if byStage[SpanStageRequest].Count != 2 {
		t.Fatalf("request row count %d, want 2", byStage[SpanStageRequest].Count)
	}
	if byStage[StageSelection].Count != 1 || byStage[StageSession].Count != 1 {
		t.Fatalf("selection/session rows %d/%d, want 1/1 (hop leg excluded)",
			byStage[StageSelection].Count, byStage[StageSession].Count)
	}
	// Request 2's failure stage is stamped on its root: it books under
	// the request row, so discovery only counts request 1's stage span.
	if byStage[StageDiscovery].Count != 1 {
		t.Fatalf("discovery row count %d, want 1", byStage[StageDiscovery].Count)
	}
	// The canonical order leads with the request row.
	if rep.Latency[0].Stage != SpanStageRequest {
		t.Fatalf("latency order starts with %q", rep.Latency[0].Stage)
	}
}

func TestAnalyzeSpansOrphansAndErrors(t *testing.T) {
	// A child whose parent never closed in the stream is an orphan, not
	// an error: per-peer streams are legitimately partial.
	admitted := func(ev *Event) { ev.OK = true }
	rep, err := Analyze([]Event{
		span(1, 1, 0xa, 5, 99, 1.0, 0.5, StageSelection),
		with(span(2, 1, 0xa, 2, 0, 2.0, 2.0, ""), admitted),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 1 || len(rep.Requests[0].Orphans) != 1 {
		t.Fatalf("orphans=%d", rep.Orphans)
	}
	// A rootless request is pending, with an empty critical path.
	rep, err = Analyze([]Event{span(1, 1, 0xa, 5, 99, 1.0, 0.5, StageSelection)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Requests[0].Outcome; got != OutcomePending {
		t.Fatalf("rootless outcome %q", got)
	}
	if cp := rep.Requests[0].CriticalPath(); cp != nil {
		t.Fatalf("rootless critical path has %d nodes", len(cp))
	}

	for name, evs := range map[string][]Event{
		"missing ids":    {{Seq: 1, Kind: KindSpan}},
		"duplicate span": {with(span(1, 1, 0xa, 2, 0, 1, 1, ""), admitted), with(span(2, 1, 0xa, 2, 0, 2, 1, ""), admitted)},
		"second root":    {with(span(1, 1, 0xa, 2, 0, 1, 1, ""), admitted), with(span(2, 1, 0xa, 3, 0, 2, 1, ""), admitted)},
	} {
		if _, err := Analyze(evs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Untraced events belong to no request.
	rep, err = Analyze([]Event{{Seq: 1, Kind: KindDupReplay, Peer: "p"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != 0 || len(rep.Requests) != 0 {
		t.Fatalf("untraced events leaked into the report")
	}
}

func TestAnalyzeSpansEmitted(t *testing.T) {
	// End-to-end through the real emit path: Spans → Tracer → ReadEvents
	// → Analyze reconstructs what was emitted.
	var buf strings.Builder
	clock := 0.0
	tr := NewTracer(&buf, func() float64 { clock += 0.5; return clock })
	spans := NewSpans(tr, 42)
	root := spans.Root(7)
	child := root.Child()
	child.End(Event{Stage: StageCompose, OK: true})
	root.End(Event{OK: true, Session: "s7"})
	root.Child().End(Event{Stage: StageSession, OK: true})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Request(7)
	if r == nil || r.Spans != 3 || r.Outcome != OutcomeSuccess || r.Session != "s7" {
		t.Fatalf("emitted tree malformed: %+v", r)
	}
	if len(r.Root.Children) != 2 || r.Root.Children[0].Event.Stage != StageCompose {
		t.Fatalf("children not under root")
	}
}
