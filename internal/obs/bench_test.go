package obs

import "testing"

// The Telemetry benchmarks double as allocation pins: ci.sh runs them
// with -benchtime=1x and they fail outright if the disabled (nil) sink
// path — or the enabled counter/histogram path — allocates.

func BenchmarkTelemetryDisabledCounter(b *testing.B) {
	var c *Counter
	var l *LatencyHist
	var g *Gauge
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Add(1)
		l.Observe(0.001)
	}); allocs != 0 {
		b.Fatalf("disabled instruments allocated %v per event, want 0", allocs)
	}
	for i := 0; i < b.N; i++ {
		c.Inc()
		l.Observe(0.001)
	}
}

func BenchmarkTelemetryEnabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench.counter")
	l := r.Latency("bench.lat")
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		l.Observe(0.003)
	}); allocs != 0 {
		b.Fatalf("enabled counter/histogram allocated %v per event, want 0", allocs)
	}
	for i := 0; i < b.N; i++ {
		c.Inc()
		l.Observe(0.003)
	}
}

func BenchmarkTelemetryDisabledTracer(b *testing.B) {
	var tr *Tracer
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KindHop, Req: 1, Inst: "a", Chosen: "p"})
	}); allocs != 0 {
		b.Fatalf("disabled tracer allocated %v per event, want 0", allocs)
	}
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{Kind: KindHop, Req: 1, Inst: "a", Chosen: "p"})
	}
}

func BenchmarkTelemetryDisabledSpans(b *testing.B) {
	var s *Spans
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := s.Root(1)
		child := sp.Child()
		child.End(Event{Stage: StageCompose})
		sp.End(Event{OK: true})
	}); allocs != 0 {
		b.Fatalf("disabled spans allocated %v per span, want 0", allocs)
	}
	for i := 0; i < b.N; i++ {
		sp := s.Root(uint64(i))
		sp.End(Event{OK: true})
	}
}
