// Package obs is the repo's telemetry plane: a race-safe metrics
// registry (atomic counters, gauges, and log-bucketed latency quantile
// histograms with deterministically ordered snapshots), and a
// JSON-lines telemetry stream (trace.go) in which every traced request
// is one tree of timed spans (span.go) — discovery, compose, selection,
// admission, session — with its hop and retransmission events beside
// them, read back by one analyzer (analyze.go).
//
// The package is deliberately dependency-free (standard library plus
// the in-repo xrand mixer for span IDs) and deterministic: it never
// reads the wall clock — every event timestamp comes from an injectable
// Clock, so simulator runs with the same seed emit byte-identical
// streams, while the network prototype injects real time from
// cmd/qsapeer.
//
// Everything is nil-safe: a nil *Counter, *Gauge, *LatencyHist, *Tracer or
// *Registry is a valid disabled sink whose methods return immediately
// without allocating, so instrumented hot paths cost nearly nothing when
// telemetry is off (ci.sh pins the disabled path at zero allocations per
// event).
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter is a no-op sink.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil Gauge is a no-op sink.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry names and owns telemetry instruments. All methods are safe
// for concurrent use; a nil *Registry hands out nil (disabled)
// instruments, so callers can wire unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	lats     map[string]*LatencyHist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		lats:     make(map[string]*LatencyHist),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Latency returns the named log-bucketed latency histogram, creating it
// on first use. It needs no bounds — the log bucketing covers the whole
// latency range — so it cannot fail.
func (r *Registry) Latency(name string) *LatencyHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.lats[name]
	if !ok {
		h = NewLatencyHist()
		r.lats[name] = h
	}
	return h
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of every instrument, each section
// sorted by name — the ordering is deterministic so snapshots diff
// cleanly across runs.
type Snapshot struct {
	Counters  []CounterValue `json:"counters,omitempty"`
	Gauges    []GaugeValue   `json:"gauges,omitempty"`
	Latencies []LatencyValue `json:"latencies,omitempty"`
}

// Snapshot captures the current state of the registry (empty for nil).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.lats {
		s.Latencies = append(s.Latencies, h.SnapshotValue(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Latencies, func(i, j int) bool { return s.Latencies[i].Name < s.Latencies[j].Name })
	return s
}

// WriteText renders the snapshot as stable, line-oriented plain text
// (expvar's human-readable sibling).
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, l := range s.Latencies {
		if _, err := fmt.Fprintf(w, "latency %s count=%d sum=%s p50=%s p99=%s p999=%s\n",
			l.Name, l.Count, strconv.FormatFloat(l.Sum, 'g', -1, 64),
			strconv.FormatFloat(l.Quantile(0.50), 'g', 6, 64),
			strconv.FormatFloat(l.Quantile(0.99), 'g', 6, 64),
			strconv.FormatFloat(l.Quantile(0.999), 'g', 6, 64)); err != nil {
			return err
		}
	}
	return nil
}
