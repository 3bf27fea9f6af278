package main

import (
	"math"
	"testing"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{n: 0, want: 0}, {n: 39, want: 0}, {n: 40, want: 0.75}, {n: 99, want: 0.75},
		{n: 100, want: 0.90}, {n: 199, want: 0.90}, {n: 200, want: 0.95}, {n: 999, want: 0.95},
		{n: 1000, want: 0.99}, {n: 9999, want: 0.99}, {n: 10000, want: 0.999},
	} {
		if got := tailFor(c.n); got != c.want {
			t.Errorf("tailFor(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // unsorted on purpose: 1000 … 1
	}
	got := summarize(samples)
	if got.N != 1000 || got.Median != 500.5 || got.TailQ != 0.99 {
		t.Fatalf("summarize = %+v, want n=1000 median=500.5 tail at p99", got)
	}
	if want := 1 + 0.99*999; math.Abs(got.Tail-want) > 1e-9 {
		t.Errorf("p99 = %g, want %g", got.Tail, want)
	}
	if few := summarize([]float64{3, 1, 2}); few.Median != 2 || few.TailQ != 0 {
		t.Errorf("summarize of 3 samples = %+v, want median 2 and no tail", few)
	}
}

func TestAtQuantileFallsBackToTheRule(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	if q, _ := atQuantile(sorted, 0.99); q != 0.95 {
		t.Errorf("200 samples: p99 asked, got p%g, want the rule's p95", 100*q)
	}
	if q, v := atQuantile(sorted[:5], 0.99); q != 0.5 || v != 2 {
		t.Errorf("5 samples: got p%g = %g, want the median 2", 100*q, v)
	}
	if q, _ := atQuantile(make([]float64, 1000), 0.99); q != 0.99 {
		t.Errorf("1000 samples: got p%g, want p99", 100*q)
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{Num: 3, Den: 12}
	if r.value() != 0.25 || r.String() != "0.25 (3 / 12)" {
		t.Errorf("ratio = %g %q", r.value(), r.String())
	}
	if (ratio{Num: 1}).value() != 0 {
		t.Error("a ratio over nothing should read 0")
	}
}
