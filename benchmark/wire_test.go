package main

import (
	"testing"
	"time"
)

// syntheticLeg is an open-loop leg of n requests at rate, all taking ms,
// with failed of them failed and the generator lag given.
func syntheticLeg(rate float64, n, failed int, ms, lagMs float64) leg {
	out := &outcome{sent: int64(n), ok: int64(n - failed), errors: int64(failed)}
	for i := 0; i < n; i++ {
		s := sample{at: float64(i) / rate, ms: ms, ok: true}
		if i < failed {
			s = sample{at: s.at, ms: failedMs}
		}
		out.samples = append(out.samples, s)
		out.lagMs = append(out.lagMs, lagMs)
	}
	return newLeg(rate, time.Duration(float64(n)/rate*float64(time.Second)), out)
}

func TestKneeIsTheHighestSustainedOfTheFirstThreeRates(t *testing.T) {
	ok1, ok2, ok3 := syntheticLeg(100, 2000, 0, 5, 1), syntheticLeg(200, 2000, 0, 8, 1), syntheticLeg(300, 2000, 0, 20, 1)
	over := syntheticLeg(600, 2000, 900, 400, 30)
	for _, c := range []struct {
		name string
		legs []leg
		want float64
	}{
		{"all three hold", []leg{ok1, ok2, ok3, over}, 300},
		{"r4 never counts, even when it holds", []leg{ok1, ok2, ok3, syntheticLeg(600, 2000, 0, 5, 1)}, 300},
		{"one failure disqualifies", []leg{ok1, ok2, syntheticLeg(300, 2000, 1, 20, 1), over}, 200},
		{"slow tail disqualifies", []leg{ok1, ok2, syntheticLeg(300, 2000, 0, 251, 1), over}, 200},
		{"lagging generator disqualifies", []leg{ok1, syntheticLeg(200, 2000, 0, 8, 11), ok3, over}, 300},
		{"a hole below the knee does not lower it", []leg{syntheticLeg(100, 2000, 5, 5, 1), ok2, ok3, over}, 300},
		{"none holds", []leg{over, over, over, over}, 0},
	} {
		if got := kneeOf(c.legs); got != c.want {
			t.Errorf("%s: knee = %g, want %g", c.name, got, c.want)
		}
	}
}

func TestFailedRequestsCountAsOverTheLimit(t *testing.T) {
	l := syntheticLeg(100, 1000, 20, 5, 1) // 2 % failed: p99 lands on a failure
	if l.p99 != failedMs {
		t.Errorf("p99 with 2%% failures = %g, want the failure booking %g", l.p99, float64(failedMs))
	}
	if got := l.sloOKShare.value(); got != 0.98 {
		t.Errorf("share within the limit = %g, want 0.98 of requests sent", got)
	}
	if slow := syntheticLeg(100, 1000, 0, 300, 1); slow.sloOKShare.value() != 0 {
		t.Errorf("requests over the limit counted as within it: %s", slow.sloOKShare)
	}
}

func TestFailShareLeavesTheOverloadLegOut(t *testing.T) {
	closed := &outcome{sent: 1000, ok: 990, shed: 10}
	legs := []leg{syntheticLeg(100, 1000, 0, 5, 1), syntheticLeg(200, 1000, 30, 5, 1),
		syntheticLeg(300, 1000, 0, 5, 1), syntheticLeg(600, 1000, 900, 5, 1)}
	fs := failShare(closed, legs)
	if fs.Num != 40 || fs.Den != 4000 {
		t.Errorf("fail_share = %s, want 40 of 4000 (closed loop + r1-r3)", fs)
	}
}

func TestWindowMedianIgnoresAStall(t *testing.T) {
	out := &outcome{}
	for i := 0; i < 1200; i++ { // 100 completions a second for 12 s …
		at := float64(i) / 100
		if at >= 3 && at < 4 {
			continue // … but for one stalled second
		}
		out.samples = append(out.samples, sample{at: at, ms: 1, ok: true})
	}
	if got := out.windowMedian(12*time.Second, goodput); got != 100 {
		t.Errorf("windowed goodput = %g, want 100", got)
	}
}

// The latency percentiles are read from r2: a full-length traced run's r2
// leg must hold the 1000 arrivals a p99 with ten samples beyond it needs.
func TestR2LegHoldsEnoughArrivalsForAP99(t *testing.T) {
	for _, w := range workloads {
		if w.Wire == nil {
			continue
		}
		if n := w.Wire.Rates[1] * tracedPhases.open[1] * runSeconds; tailFor(int(n)) < 0.99 {
			t.Errorf("%s: r2 leg holds %g arrivals, too few for a p99", w.Name, n)
		}
	}
}
