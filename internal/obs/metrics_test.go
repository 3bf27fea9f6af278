package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsNoOp(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var lh *LatencyHist
	lh.Observe(1)
	if lh.Count() != 0 || lh.Sum() != 0 {
		t.Fatal("nil latency histogram must read 0")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Latency("x") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestRegistryReuseAndSnapshotOrder(t *testing.T) {
	r := NewRegistry()
	if r.Counter("b") != r.Counter("b") {
		t.Fatal("same name must return the same counter")
	}
	r.Counter("b").Add(2)
	r.Counter("a").Inc()
	r.Gauge("z").Set(-5)
	r.Latency("lat.b").Observe(0.25)
	r.Latency("lat.a").Observe(0.5)

	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if s.Counters[0].Value != 1 || s.Counters[1].Value != 2 {
		t.Fatalf("wrong counter values: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != -5 {
		t.Fatalf("wrong gauges: %+v", s.Gauges)
	}
	if len(s.Latencies) != 2 || s.Latencies[0].Name != "lat.a" || s.Latencies[1].Name != "lat.b" {
		t.Fatalf("latency section not sorted: %+v", s.Latencies)
	}
	if r.Latency("lat.a") != r.Latency("lat.a") {
		t.Fatal("same name must return the same latency histogram")
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Latency("l").Observe(0.003)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 8000 {
		t.Fatalf("gauge = %d, want 8000", got)
	}
	if l := r.Latency("l"); l.Count() != 8000 {
		t.Fatalf("latency count = %d, want 8000", l.Count())
	}
}

func TestSnapshotWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("rpc.sent.probe").Add(3)
	r.Gauge("sessions.active").Set(2)
	l := r.Latency("rpc.lat")
	l.Observe(0.001)
	l.Observe(0.002)

	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"counter rpc.sent.probe 3\n",
		"gauge sessions.active 2\n",
		"latency rpc.lat count=2",
		"p50=",
		"p999=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, out)
		}
	}
}
