package netproto

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// rpcPathTelemetry makes the accounting calls one probe RPC's path
// makes, straight on the peer's instruments.
func rpcPathTelemetry(tele *peerTele) {
	tele.observeRPC(msgProbe, time.Millisecond, nil)
	tele.rpcRetried[msgProbe].Inc()
	tele.wire.message(msgProbe, 64, false)
	tele.wire.message(msgProbe, 64, true)
	tele.probeHits.Inc()
	tele.probeMisses.Inc()
	tele.admitOK.Inc()
	tele.selection.Steps.Inc()
	tele.stageLat[obs.StageSelection].Observe(0.001)
}

// BenchmarkTelemetryDisabledRPCPath pins the disabled-sink overhead on
// the RPC hot path: with Config.Metrics nil the peer's instruments are
// the zero peerTele, every call below is a nil-receiver no-op, and none
// may allocate. ci.sh runs this with -benchtime=1x as a regression gate.
func BenchmarkTelemetryDisabledRPCPath(b *testing.B) {
	var tele peerTele
	if allocs := testing.AllocsPerRun(1000, func() { rpcPathTelemetry(&tele) }); allocs != 0 {
		b.Fatalf("disabled telemetry allocated %v per RPC, want 0", allocs)
	}
	for i := 0; i < b.N; i++ {
		rpcPathTelemetry(&tele)
	}
}

// BenchmarkTelemetryEnabledRPCPath pins the enabled path: pre-resolved
// counters and the latency histograms must stay allocation-free per RPC.
func BenchmarkTelemetryEnabledRPCPath(b *testing.B) {
	tele := newPeerTele(obs.NewRegistry())
	if allocs := testing.AllocsPerRun(1000, func() { rpcPathTelemetry(&tele) }); allocs != 0 {
		b.Fatalf("enabled telemetry allocated %v per RPC, want 0", allocs)
	}
	for i := 0; i < b.N; i++ {
		rpcPathTelemetry(&tele)
	}
}
