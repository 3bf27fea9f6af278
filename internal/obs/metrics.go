// Package obs is the repo's telemetry plane: a race-safe metrics
// registry (atomic counters, gauges, bounded histograms, and
// log-bucketed latency quantile histograms with deterministically
// ordered snapshots), a structured decision-trace stream (JSON-lines
// events covering compose → hop-by-hop selection → reserve/retry →
// session end), and a causal span layer (span.go) that places timed
// segments of each request in a per-request tree.
//
// The package is deliberately dependency-free (standard library plus
// the in-repo xrand mixer for span IDs) and deterministic: it never
// reads the wall clock — every event timestamp comes from an injectable
// Clock, so simulator runs with the same seed emit byte-identical
// streams, while the network prototype injects real time from
// cmd/qsapeer.
//
// Everything is nil-safe: a nil *Counter, *Gauge, *Histogram, *Tracer or
// *Registry is a valid disabled sink whose methods return immediately
// without allocating, so instrumented hot paths cost nearly nothing when
// telemetry is off (ci.sh pins the disabled path at zero allocations per
// event).
package obs

import (
	"fmt"
	"io"
	"math"
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

// Histogram is a bounded-bucket histogram: observation i lands in the
// first bucket whose upper bound is ≥ the value, or in the implicit
// overflow bucket. Observe is lock-free (atomic adds plus a CAS loop for
// the float sum); a nil Histogram is a no-op sink.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds
	counts []atomic.Uint64
	over   atomic.Uint64 // observations above the last bound
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

// DefLatencyBuckets are the default RPC latency bounds in seconds.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// newHistogram copies bounds after validating them: a NaN bound or a
// non-increasing pair would silently misbucket every later observation
// (sort.SearchFloat64s requires sorted input), so both are rejected
// with an error instead of being repaired behind the caller's back.
func newHistogram(bounds []float64) (*Histogram, error) {
	clean := make([]float64, 0, len(bounds))
	for i, b := range bounds {
		if math.IsNaN(b) {
			return nil, fmt.Errorf("obs: histogram bound %d is NaN", i)
		}
		if i > 0 && b <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not strictly increasing: bound %d (%v) ≤ bound %d (%v)",
				i, b, i-1, bounds[i-1])
		}
		clean = append(clean, b)
	}
	return &Histogram{bounds: clean, counts: make([]atomic.Uint64, len(clean))}, nil
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry names and owns telemetry instruments. All methods are safe
// for concurrent use; a nil *Registry hands out nil (disabled)
// instruments, so callers can wire unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	lats     map[string]*LatencyHist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
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

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the existing instrument
// regardless of bounds). Bounds must be strictly increasing and
// NaN-free; invalid bounds are an error, not a silently repaired
// instrument. A nil registry returns (nil, nil): the disabled sink.
func (r *Registry) Histogram(name string, bounds []float64) (*Histogram, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		var err error
		h, err = newHistogram(bounds)
		if err != nil {
			return nil, err
		}
		r.hists[name] = h
	}
	return h, nil
}

// Latency returns the named log-bucketed latency histogram, creating it
// on first use. Unlike Histogram it needs no bounds — the log bucketing
// covers the whole latency range — so it cannot fail.
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

// Bucket is one histogram bucket: the count of observations ≤ Le.
// Counts are per-bucket, not cumulative; observations above the last
// bound are in the enclosing HistogramValue's Over.
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
	Over    uint64   `json:"over,omitempty"`
}

// Quantile estimates the q-quantile from the bucket counts by linear
// interpolation inside the covering bucket (the first bucket's lower
// edge is 0 — these histograms hold non-negative latencies).
// Conventions: an empty histogram reports 0; q ≤ 0 reports the lower
// edge of the first occupied bucket; q ≥ 1 (or a rank landing in the
// unbounded overflow region) reports the last bound — the histogram
// cannot see past it.
func (h HistogramValue) Quantile(q float64) float64 {
	if h.Count == 0 || q != q {
		return 0
	}
	lastBound := 0.0
	if n := len(h.Buckets); n > 0 {
		lastBound = h.Buckets[n-1].Le
	}
	if q >= 1 {
		if h.Over > 0 {
			return lastBound
		}
		for i := len(h.Buckets) - 1; i >= 0; i-- {
			if h.Buckets[i].Count > 0 {
				return h.Buckets[i].Le
			}
		}
		return 0
	}
	rank := q * float64(h.Count)
	lo, cum := 0.0, 0.0
	for _, b := range h.Buckets {
		if b.Count > 0 && cum+float64(b.Count) >= rank {
			if q <= 0 {
				return lo
			}
			frac := (rank - cum) / float64(b.Count)
			return lo + frac*(b.Le-lo)
		}
		cum += float64(b.Count)
		lo = b.Le
	}
	return lastBound // rank falls among the Over observations
}

// Snapshot is a point-in-time copy of every instrument, each section
// sorted by name — the ordering is deterministic so snapshots diff
// cleanly across runs.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters,omitempty"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
	Latencies  []LatencyValue   `json:"latencies,omitempty"`
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
	for name, h := range r.hists {
		hv := HistogramValue{Name: name, Count: h.Count(), Sum: h.Sum(), Over: h.over.Load()}
		for i, b := range h.bounds {
			hv.Buckets = append(hv.Buckets, Bucket{Le: b, Count: h.counts[i].Load()})
		}
		s.Histograms = append(s.Histograms, hv)
	}
	for name, h := range r.lats {
		s.Latencies = append(s.Latencies, h.SnapshotValue(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
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
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%s\n",
			h.Name, h.Count, strconv.FormatFloat(h.Sum, 'g', -1, 64)); err != nil {
			return err
		}
		for _, b := range h.Buckets {
			if _, err := fmt.Fprintf(w, "  le %s %d\n",
				strconv.FormatFloat(b.Le, 'g', -1, 64), b.Count); err != nil {
				return err
			}
		}
		if h.Over > 0 {
			if _, err := fmt.Fprintf(w, "  le +inf %d\n", h.Over); err != nil {
				return err
			}
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
