// Telemetry-plane chaos test: run aggregations over a lossy fabric with
// tracing and metrics enabled, then check that the trace attributes
// every request to a concrete outcome that matches what the
// caller observed, and that the metric counters saw the same traffic.
package netproto_test

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/service"
)

func TestTelemetryChaosAttribution(t *testing.T) {
	fab, err := faults.New(faults.Config{
		Seed:          42,
		DropRate:      0.10,
		Latency:       time.Millisecond,
		LatencyJitter: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	// The clock is read from the session monitors too, so it is atomic.
	var tick atomic.Uint64
	tracer := obs.NewTracer(&buf, func() float64 { return float64(tick.Add(1)) })

	const cpu = 400
	peers := chaosCluster(t, fab, 5, cpu, func(i int, cfg *netproto.Config) {
		cfg.Metrics = reg // fleet-wide registry: counters aggregate across peers
		if i == 4 {
			cfg.Tracer = tracer // only the initiator traces its aggregations
			cfg.MonitorInterval = 50 * time.Millisecond
		}
	})
	src := chaosInst("source#0", "source", "RAW", "MPEG", 40)
	snk := chaosInst("player#0", "player", "MPEG", "SCREEN", 30)
	for _, p := range peers[1:3] {
		if err := p.Provide(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers[2:4] {
		if err := p.Provide(snk); err != nil {
			t.Fatal(err)
		}
	}
	user := peers[4]
	const requests = 8
	okCount, failCount := 0, 0
	var sids []string
	for i := 0; i < requests; i++ {
		plan, err := user.Aggregate([]service.Name{"source", "player"}, chaosQoS, 250*time.Millisecond)
		if err != nil {
			failCount++
			continue
		}
		okCount++
		sids = append(sids, plan.SessionID)
	}
	// Wait for the monitor to resolve every admitted session so the
	// trace contains its end event.
	deadline := time.Now().Add(10 * time.Second)
	for _, sid := range sids {
		for {
			st, ok := user.SessionStatus(sid)
			if ok && st != netproto.StatusActive {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s never resolved", sid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Requests) != requests {
		t.Fatalf("trace holds %d requests, initiator issued %d", len(rep.Requests), requests)
	}
	if rep.Orphans != 0 {
		t.Errorf("%d spans outside every request's tree", rep.Orphans)
	}
	// Every request is one rooted tree; every failed aggregation is
	// attributed to a concrete pipeline stage, and the split must match
	// what Aggregate returned.
	var failed, resolved int
	for _, r := range rep.Requests {
		if r.Root == nil {
			t.Errorf("request %d has no root span", r.Req)
		}
		switch r.Outcome {
		case obs.StageDiscovery, obs.StageCompose, obs.StageSelection, obs.StageAdmission:
			failed++
		case obs.OutcomeSuccess, obs.StageDeparture:
			resolved++
		default:
			t.Errorf("request %d left in state %q", r.Req, r.Outcome)
		}
	}
	if failed != failCount {
		t.Errorf("trace attributes %d pipeline failures, caller saw %d", failed, failCount)
	}
	if resolved != okCount {
		t.Errorf("trace resolved %d admitted sessions, caller admitted %d", resolved, okCount)
	}
	// A 10% drop rate must have surfaced in the transport counters, and
	// the RPC plane must have recorded traffic.
	snap := reg.Snapshot()
	vals := make(map[string]uint64, len(snap.Counters))
	for _, c := range snap.Counters {
		vals[c.Name] = c.Value
	}
	if vals["transport.dials"] == 0 {
		t.Error("transport.dials never incremented")
	}
	if vals["transport.dial_failures"] == 0 {
		t.Error("10% drop fabric produced no transport.dial_failures")
	}
	if vals["rpc.probe.sent"] == 0 || vals["rpc.lookup.sent"] == 0 {
		t.Errorf("rpc counters missing traffic: probe=%d lookup=%d",
			vals["rpc.probe.sent"], vals["rpc.lookup.sent"])
	}
	if got := vals["reserve.admitted"]; got == 0 && okCount > 0 {
		t.Error("admitted sessions but reserve.admitted is zero")
	}
	found := false
	for _, l := range snap.Latencies {
		if l.Name == "rpc.latency_seconds" && l.Count > 0 {
			found = true
			if p99 := l.Quantile(0.99); p99 <= 0 {
				t.Errorf("rpc.latency_seconds p99 = %v, want > 0", p99)
			}
		}
	}
	if !found {
		t.Error("rpc.latency_seconds latency histogram recorded nothing")
	}
	t.Logf("chaos telemetry: %d ok, %d failed, %d events, %d dials (%d failed)",
		okCount, failCount, len(events), vals["transport.dials"], vals["transport.dial_failures"])
}
