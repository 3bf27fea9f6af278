package obs

import (
	"math"
	"testing"
)

func TestLatIndexRoundTrip(t *testing.T) {
	for _, v := range []float64{
		1e-9, 2.5e-7, 1e-6, 0.00037, 0.001, 0.0105, 0.25, 1, 1.5,
		2, 3.14159, 60, 3600, 86400, 1e6, 5e8,
	} {
		i := latIndex(v)
		if i < 0 || i >= nLat {
			t.Fatalf("latIndex(%v) = %d out of range", v, i)
		}
		lo, hi := latLow(i), latLow(i+1)
		if !(lo <= v && v < hi) {
			t.Errorf("latIndex(%v) = %d but bucket is [%v, %v)", v, i, lo, hi)
		}
		if rel := (hi - lo) / lo; rel > 1.0/latSubs+1e-12 {
			t.Errorf("bucket %d width %v exceeds 1/%d relative", i, rel, latSubs)
		}
	}
	// Out-of-range values clamp to the edge buckets.
	if latIndex(1e-12) != 0 {
		t.Errorf("tiny value should clamp to bucket 0, got %d", latIndex(1e-12))
	}
	if latIndex(1e12) != nLat-1 || latIndex(math.Inf(1)) != nLat-1 {
		t.Errorf("huge values should clamp to the top bucket")
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	h := NewLatencyHist()
	// 1000 observations at 1ms, 10 at 100ms, 1 at 2s: p50 and p98 sit
	// in the 1ms bucket (ranks ≤ 1000), p99 and p999 in the 100ms
	// bucket (ranks 1000.89 and 1009.99).
	for i := 0; i < 1000; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.1)
	}
	h.Observe(2.0)
	if h.Count() != 1011 {
		t.Fatalf("count = %d, want 1011", h.Count())
	}
	v := h.SnapshotValue("lat")
	check := func(q, want, tol float64) {
		t.Helper()
		got := v.Quantile(q)
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("Quantile(%v) = %v, want %v ± %v%%", q, got, want, tol*100)
		}
	}
	check(0.50, 0.001, 0.02)
	check(0.98, 0.001, 0.02)
	check(0.99, 0.1, 0.02)
	check(0.999, 0.1, 0.02)
	check(1.0, 2.0, 0.04) // upper bound of the top occupied bucket
	if got, want := v.Quantile(0), latLow(latIndex(0.001)); got != want {
		t.Errorf("Quantile(0) = %v, want the 1ms bucket's lower edge %v", got, want)
	}
	wantSum := 1000*0.001 + 10*0.1 + 2.0
	if math.Abs(v.Sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", v.Sum, wantSum)
	}
}

func TestLatencyHistEdgeCases(t *testing.T) {
	// Empty.
	var empty LatencyValue
	for _, q := range []float64{0, 0.5, 1, math.NaN()} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	// Zeros, negatives, and NaN observations.
	h := NewLatencyHist()
	h.Observe(0)
	h.Observe(-3)
	h.Observe(math.NaN()) // discarded entirely
	h.Observe(0.5)
	v := h.SnapshotValue("z")
	if v.Count != 3 || v.Zeros != 2 {
		t.Fatalf("count = %d zeros = %d, want 3 and 2", v.Count, v.Zeros)
	}
	if v.Sum != 0.5 {
		t.Errorf("sum = %v, want 0.5 (non-positive excluded)", v.Sum)
	}
	if got := v.Quantile(0.5); got != 0 {
		t.Errorf("Quantile(0.5) with 2/3 zeros = %v, want 0", got)
	}
	if got := v.Quantile(0.9); got < 0.49 || got > 0.52 {
		t.Errorf("Quantile(0.9) = %v, want ≈ 0.5", got)
	}
	// Single bucket: every quantile lands in it.
	one := NewLatencyHist()
	one.Observe(0.25)
	sv := one.SnapshotValue("one")
	if got := sv.Quantile(0.5); got < 0.24 || got > 0.26 {
		t.Errorf("single-bucket Quantile(0.5) = %v, want ≈ 0.25", got)
	}
	if got := sv.Quantile(0); got > 0.25 {
		t.Errorf("single-bucket Quantile(0) = %v, want ≤ 0.25", got)
	}
	if got := sv.Quantile(1); got < 0.25 {
		t.Errorf("single-bucket Quantile(1) = %v, want ≥ 0.25", got)
	}
	// All-zero snapshot with q=0 and q=1.
	zh := NewLatencyHist()
	zh.Observe(0)
	zv := zh.SnapshotValue("allzero")
	if zv.Quantile(0) != 0 || zv.Quantile(1) != 0 || zv.Quantile(0.5) != 0 {
		t.Errorf("all-zero quantiles must be 0: %v %v", zv.Quantile(0), zv.Quantile(1))
	}
}

func TestLatencyValueMerge(t *testing.T) {
	a, b, all := NewLatencyHist(), NewLatencyHist(), NewLatencyHist()
	obsv := []float64{0.001, 0.002, 0.004, 0.1, 0.1, 1.5, 0, 0.25}
	for i, v := range obsv {
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	m := a.SnapshotValue("m").Merge(b.SnapshotValue("other"))
	want := all.SnapshotValue("m")
	if m.Name != "m" || m.Count != want.Count || m.Zeros != want.Zeros {
		t.Fatalf("merge header mismatch: %+v vs %+v", m, want)
	}
	if math.Abs(m.Sum-want.Sum) > 1e-12 {
		t.Fatalf("merge sum %v, want %v", m.Sum, want.Sum)
	}
	if len(m.Buckets) != len(want.Buckets) {
		t.Fatalf("merge buckets %v, want %v", m.Buckets, want.Buckets)
	}
	for i := range m.Buckets {
		if m.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: %+v vs %+v", i, m.Buckets[i], want.Buckets[i])
		}
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if m.Quantile(q) != want.Quantile(q) {
			t.Errorf("Quantile(%v): merged %v vs direct %v", q, m.Quantile(q), want.Quantile(q))
		}
	}
	// Merging with an empty snapshot is the identity.
	id := want.Merge(LatencyValue{})
	if id.Count != want.Count || len(id.Buckets) != len(want.Buckets) {
		t.Errorf("identity merge changed the snapshot: %+v", id)
	}
}
