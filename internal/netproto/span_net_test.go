package netproto

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wire"
)

// tracedPeer starts a peer with its own tracer writing into a buffer,
// so tests can assert on the per-peer event streams.
func tracedPeer(t *testing.T, cpu float64) (*Peer, *bytes.Buffer, *obs.Tracer) {
	t.Helper()
	var buf bytes.Buffer
	begin := time.Now()
	tr := obs.NewTracer(&buf, func() float64 { return time.Since(begin).Seconds() })
	p, err := Start(Config{Listen: "127.0.0.1:0", CPU: cpu, Memory: cpu,
		RPCTimeout: 2 * time.Second, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, &buf, tr
}

// TestSpansStitchAcrossPeers is the tentpole's cross-peer property: the
// initiator's request span tree and the serving peers' spans share one
// trace ID, with parent links that cross the wire through the RPC
// envelope's trace context.
func TestSpansStitchAcrossPeers(t *testing.T) {
	type traced struct {
		p   *Peer
		buf *bytes.Buffer
		tr  *obs.Tracer
	}
	peers := make([]traced, 4)
	for i := range peers {
		p, buf, tr := tracedPeer(t, 200)
		peers[i] = traced{p: p, buf: buf, tr: tr}
		if i > 0 {
			if err := p.Join(peers[0].p.Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	src := inst("source#0", "source", "RAW", "MPEG", 50, 40)
	snk := inst("player#0", "player", "MPEG", "SCREEN", 30, 30)
	if err := peers[1].p.Provide(src); err != nil {
		t.Fatal(err)
	}
	if err := peers[2].p.Provide(snk); err != nil {
		t.Fatal(err)
	}
	user := peers[3]
	if _, err := user.p.Aggregate([]service.Name{"source", "player"}, userQoS, 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	events := make([][]obs.Event, len(peers))
	for i := range peers {
		if err := peers[i].tr.Flush(); err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadEvents(peers[i].buf)
		if err != nil {
			t.Fatalf("peer %d stream: %v", i, err)
		}
		events[i] = evs
	}

	// The initiator's tree: one root (no parent) plus the four stage
	// children, all under one trace.
	var root *obs.Event
	stages := map[string]*obs.Event{}
	for i := range events[3] {
		ev := &events[3][i]
		if ev.Kind != obs.KindSpan {
			continue
		}
		if ev.Parent == 0 && ev.Stage == "" {
			if root != nil {
				t.Fatal("more than one root span at the initiator")
			}
			root = ev
		} else if ev.Stage != "" && ev.Hop == 0 && ev.At == "" && stages[ev.Stage] == nil {
			// Stage spans carry no hop/peer attribution; the initiator's
			// own selection-hop spans (it executes the first hop locally)
			// do.
			stages[ev.Stage] = ev
		}
	}
	if root == nil {
		t.Fatal("initiator emitted no root span")
	}
	if !root.OK || root.Session == "" || root.Req != 1 {
		t.Fatalf("root span outcome wrong: %+v", root)
	}
	for _, want := range []string{obs.StageDiscovery, obs.StageCompose, obs.StageSelection, obs.StageAdmission} {
		sp := stages[want]
		if sp == nil {
			t.Fatalf("initiator missing %s stage span", want)
		}
		if sp.Trace != root.Trace {
			t.Errorf("%s span in trace %x, root in %x", want, sp.Trace, root.Trace)
		}
		if sp.Parent != root.Span {
			t.Errorf("%s span parented under %x, want root %x", want, sp.Parent, root.Span)
		}
		if !sp.OK {
			t.Errorf("%s stage span not OK: %+v", want, sp)
		}
		// Exact endpoint reconciliation: the stage lies inside the root.
		if start := sp.T - sp.Duration; start < root.T-root.Duration-1e-9 || sp.T > root.T+1e-9 {
			t.Errorf("%s span [%v, %v] outside root [%v, %v]", want, start, sp.T, root.T-root.Duration, root.T)
		}
	}

	// Serving peers: every span they emitted joined the initiator's
	// trace (selection hops chain across peers; reservations parent
	// under the admission stage span).
	sawRemoteSelection, sawReserve := false, false
	localSpanIDs := map[uint64]bool{root.Span: true}
	for _, sp := range stages {
		localSpanIDs[sp.Span] = true
	}
	for i := 0; i < 3; i++ {
		for _, ev := range events[i] {
			if ev.Kind != obs.KindSpan {
				continue
			}
			if ev.Trace != root.Trace {
				t.Fatalf("peer %d span in foreign trace %x: %+v", i, ev.Trace, ev)
			}
			if ev.Parent == 0 {
				t.Fatalf("peer %d span must be parented: %+v", i, ev)
			}
			switch ev.Stage {
			case obs.StageSelection:
				sawRemoteSelection = true
			case obs.StageAdmission:
				sawReserve = true
				if !localSpanIDs[ev.Parent] {
					t.Errorf("reserve span parented under unknown span %x", ev.Parent)
				}
			}
		}
	}
	if !sawRemoteSelection {
		t.Error("no serving peer emitted a selection hop span")
	}
	if !sawReserve {
		t.Error("no serving peer emitted a reservation span")
	}
}

// TestAggregateTracingOffMatchesOn: disabling the tracer must not
// change the functional outcome of an aggregation (same plan shape),
// and the untraced peer emits nothing.
func TestAggregateTracingOffMatchesOn(t *testing.T) {
	run := func(traced bool) *Plan {
		var tr *obs.Tracer
		if traced {
			begin := time.Now()
			tr = obs.NewTracer(&bytes.Buffer{}, func() float64 { return time.Since(begin).Seconds() })
		}
		boot, err := Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100})
		if err != nil {
			t.Fatal(err)
		}
		defer boot.Close()
		user, err := Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		defer user.Close()
		if err := user.Join(boot.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := boot.Provide(inst("source#0", "source", "RAW", "MPEG", 10, 40)); err != nil {
			t.Fatal(err)
		}
		plan, err := user.Aggregate([]service.Name{"source"}, userQoS, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	on, off := run(true), run(false)
	if len(on.Peers) != len(off.Peers) || on.Instances[0] != off.Instances[0] || on.Cost != off.Cost {
		t.Fatalf("tracing changed the aggregation outcome:\non:  %+v\noff: %+v", on, off)
	}
}

// TestAnalyzedOutcomeMatchesSessionStatus: on a loopback overlay whose
// one provider serves three sessions, the initiator's stream analyzes
// to the outcome the initiator itself reports. Without monitoring the
// prototype never learns how a session ends, so each is "admitted";
// with monitoring and the provider closed, each is a "departure", as
// SessionStatus says.
func TestAnalyzedOutcomeMatchesSessionStatus(t *testing.T) {
	for _, monitor := range []time.Duration{0, 20 * time.Millisecond} {
		user, provider, events := func() (*Peer, *Peer, func() []obs.Event) {
			peers := make([]*Peer, 4)
			var buf bytes.Buffer
			begin := time.Now()
			tr := obs.NewTracer(&buf, func() float64 { return time.Since(begin).Seconds() })
			for i := range peers {
				cfg := Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100, RPCTimeout: 500 * time.Millisecond}
				if i == 3 {
					cfg.Tracer, cfg.MonitorInterval = tr, monitor
				}
				p, err := Start(cfg)
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
			return peers[3], peers[1], func() []obs.Event {
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				return evs
			}
		}()
		if err := provider.Provide(inst("source#0", "source", "RAW", "MPEG", 10, 40)); err != nil {
			t.Fatal(err)
		}
		var sids []string
		for i := 0; i < 3; i++ {
			plan, err := user.Aggregate([]service.Name{"source"}, userQoS, time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			sids = append(sids, plan.SessionID)
		}
		want := map[string]string{}
		for _, sid := range sids {
			want[sid] = obs.OutcomeAdmitted
		}
		if monitor > 0 {
			provider.Close()
			deadline := time.Now().Add(5 * time.Second)
			for _, sid := range sids {
				for {
					st, ok := user.SessionStatus(sid)
					if !ok {
						t.Fatalf("monitored session %s unknown", sid)
					}
					if st == StatusFailed {
						want[sid] = obs.StageDeparture
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("session %s still %s after its only provider closed", sid, st)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}
		rep, err := obs.Analyze(events())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Requests) != len(sids) {
			t.Fatalf("monitor %v: %d requests analyzed, %d aggregated", monitor, len(rep.Requests), len(sids))
		}
		for _, r := range rep.Requests {
			if w, ok := want[r.Session]; !ok || r.Outcome != w {
				t.Errorf("monitor %v: session %q analyzed as %q, want %q", monitor, r.Session, r.Outcome, w)
			}
		}
	}
}

// TestUDPTraceEvents pins the transport-level trace events: a dropped
// first transmission surfaces as a retransmit event carrying the
// message's trace context, and the duplicate delivery it causes
// surfaces as an (unparented) dedup-replay event at the server.
func TestUDPTraceEvents(t *testing.T) {
	var sbuf bytes.Buffer
	sBegin := time.Now()
	str := obs.NewTracer(&sbuf, func() float64 { return time.Since(sBegin).Seconds() })
	server, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp",
		CPU: 10, Memory: 10, Tracer: str})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })

	var cbuf bytes.Buffer
	cBegin := time.Now()
	ctr := obs.NewTracer(&cbuf, func() float64 { return time.Since(cBegin).Seconds() })
	// Drop the very first data packet (forcing a retransmit), duplicate
	// everything after it (forcing a server-side dedup replay).
	filter := &countingFilter{decide: func(seen, size int) PacketDecision {
		if seen == 0 {
			return PacketDecision{Drop: true}
		}
		return PacketDecision{Duplicate: true}
	}}
	tr := &UDPTransport{tracer: ctr}
	tr.cfg = WireConfig{AckTimeout: 10 * time.Millisecond, PacketFilter: filter}
	tr.cfg.fillDefaults()
	defer tr.Close()

	resp, err := rpcWith(tr, wire.NewBinary(), wireTele{}, server.Addr(),
		request{Type: msgProbe, TraceID: 42, SpanID: 7}, 2*time.Second)
	if err != nil || !resp.OK {
		t.Fatalf("probe: %v %+v", err, resp)
	}

	if err := ctr.Flush(); err != nil {
		t.Fatal(err)
	}
	cevs, err := obs.ReadEvents(&cbuf)
	if err != nil {
		t.Fatal(err)
	}
	var retransmits int
	for _, ev := range cevs {
		if ev.Kind != obs.KindRetransmit {
			continue
		}
		retransmits++
		if ev.Trace != 42 || ev.Span != 7 {
			t.Fatalf("retransmit lost the trace context: %+v", ev)
		}
		if ev.Peer != server.Addr() || ev.Attempt < 1 {
			t.Fatalf("retransmit attribution wrong: %+v", ev)
		}
	}
	if retransmits == 0 {
		t.Fatal("dropped first packet produced no retransmit event")
	}

	// The duplicate delivery reaches the server's dedup cache.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := str.Flush(); err != nil {
			t.Fatal(err)
		}
		sevs, err := obs.ReadEvents(bytes.NewReader(sbuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, ev := range sevs {
			if ev.Kind == obs.KindDupReplay && ev.Peer != "" && ev.Trace == 0 {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("duplicate delivery produced no dedup-replay event")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
