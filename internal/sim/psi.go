package sim

import (
	"fmt"
	"math"
)

// Ratio is a success/failure count. Result.Psi is the paper's ψ, the
// service aggregation request success ratio (§4.1): a request succeeds
// iff it is admitted and no provisioning peer departs before its
// session ends.
type Ratio struct {
	Success, Failure uint64
}

// Total returns the number of recorded outcomes.
func (r Ratio) Total() uint64 { return r.Success + r.Failure }

// Value returns ψ in [0,1], or NaN when nothing was recorded.
func (r Ratio) Value() float64 {
	if r.Total() == 0 {
		return math.NaN()
	}
	return float64(r.Success) / float64(r.Total())
}

// String renders e.g. "87.5% (350/400)".
func (r Ratio) String() string {
	if r.Total() == 0 {
		return "n/a (0/0)"
	}
	return fmt.Sprintf("%.1f%% (%d/%d)", 100*r.Value(), r.Success, r.Total())
}

// Point is one sample of the ψ time series.
type Point struct {
	Time  float64 // end of the window, in minutes
	Value float64 // ψ within the window
	N     uint64  // outcomes in the window
}

// sampler buckets outcomes into fixed windows by the time their request
// was issued — how the paper's fluctuation plots (Figures 6 and 8)
// sample ψ over time. Times come off the engine clock, so they are never
// negative.
type sampler struct {
	window  float64 // minutes per bucket, > 0 (Config.SampleWindow)
	buckets []Ratio // bucket k covers [k·window, (k+1)·window)
}

// record attributes one outcome to the window containing issueTime.
func (s *sampler) record(issueTime float64, ok bool) {
	k := int(issueTime / s.window)
	for len(s.buckets) <= k {
		s.buckets = append(s.buckets, Ratio{})
	}
	if ok {
		s.buckets[k].Success++
	} else {
		s.buckets[k].Failure++
	}
}

// series returns the non-empty windows ending no later than until, in
// time order.
func (s *sampler) series(until float64) []Point {
	var out []Point
	for k, r := range s.buckets {
		end := float64(k+1) * s.window
		if r.Total() == 0 || end > until {
			continue
		}
		out = append(out, Point{Time: end, Value: r.Value(), N: r.Total()})
	}
	return out
}
