package main

import (
	"math"
	"testing"
)

func TestSetsDiffIsAShareOfTheBest(t *testing.T) {
	for _, c := range []struct {
		name     string
		values   []float64
		better   string
		rel, abs float64
		positive bool
	}{
		{"lower is better: the worst is 25 % above the best", []float64{5, 4, 4.5}, "lower", 0.25, 1, true},
		{"higher is better: the worst is 20 % below the best", []float64{2900, 2320}, "higher", 0.2, 580, true},
		{"equal sets", []float64{3, 3}, "higher", 0, 0, true},
		{"a set that read 0 is a failure, not agreement", []float64{0, 2900}, "higher", 0, 2900, false},
		{"every set read 0", []float64{0, 0}, "lower", 0, 0, false},
		{"a negative reading", []float64{-1, 2}, "lower", 0, 3, false},
	} {
		rel, abs, positive := setsDiff(c.values, c.better)
		if positive != c.positive || math.Abs(rel-c.rel) > 1e-12 || math.Abs(abs-c.abs) > 1e-12 {
			t.Errorf("%s: setsDiff(%v, %s) = %g, %g, %v; want %g, %g, %v",
				c.name, c.values, c.better, rel, abs, positive, c.rel, c.abs, c.positive)
		}
	}
}

func TestSetsAgreeWithinTheBoundOrTheFloor(t *testing.T) {
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.05}
	rate := metricDef{Name: "agg_per_s", Better: "higher", Bound: 0.25}
	for _, c := range []struct {
		name   string
		values []float64
		d      metricDef
		want   bool
	}{
		{"within the bound", []float64{0.50, 0.60}, setup, true},
		{"outside the bound, within the floor: 0.3 ms against 0.5 ms", []float64{0.0003, 0.0005}, setup, true},
		{"outside both", []float64{0.5, 0.7}, setup, false},
		{"no floor: outside the bound fails", []float64{400, 290}, rate, false},
		{"no floor: equal sets agree", []float64{400, 400}, rate, true},
		{"a floor does not excuse a set that read 0", []float64{0, 0.01}, setup, false},
	} {
		if _, _, ok := setsAgree(c.values, c.d); ok != c.want {
			t.Errorf("%s: setsAgree(%v) = %v, want %v", c.name, c.values, ok, c.want)
		}
	}
}
