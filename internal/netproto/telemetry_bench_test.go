package netproto

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// BenchmarkTelemetryDisabledRPCPath pins the disabled-sink overhead on
// the RPC hot path: with Config.Metrics nil every accounting call below
// is a nil-receiver no-op and must not allocate. ci.sh runs this with
// -benchtime=1x as a regression gate.
func BenchmarkTelemetryDisabledRPCPath(b *testing.B) {
	var tele *peerTele
	if allocs := testing.AllocsPerRun(1000, func() {
		tele.observeRPC(msgProbe, time.Millisecond, nil)
		tele.retried(msgProbe)
		tele.probeCache(true)
		tele.reserve(true)
		tele.counters()
	}); allocs != 0 {
		b.Fatalf("disabled telemetry allocated %v per RPC, want 0", allocs)
	}
	for i := 0; i < b.N; i++ {
		tele.observeRPC(msgProbe, time.Millisecond, nil)
	}
}

// BenchmarkTelemetryEnabledRPCPath pins the enabled path: pre-resolved
// counters and the latency histogram must stay allocation-free per RPC.
func BenchmarkTelemetryEnabledRPCPath(b *testing.B) {
	tele := newPeerTele(obs.NewRegistry())
	if allocs := testing.AllocsPerRun(1000, func() {
		tele.observeRPC(msgProbe, time.Millisecond, nil)
		tele.probeCache(false)
		tele.reserve(false)
	}); allocs != 0 {
		b.Fatalf("enabled telemetry allocated %v per RPC, want 0", allocs)
	}
	for i := 0; i < b.N; i++ {
		tele.observeRPC(msgProbe, time.Millisecond, nil)
	}
}
