package main

import (
	"fmt"
	"math"
	"sort"
)

// timing is the one way this benchmark reports a distribution of
// timings: the median, plus the highest percentile that still has at
// least ten samples beyond it — a tail estimated from fewer is noise —
// and the sample count, which is printed beside every timing.
type timing struct {
	N      int
	Median float64
	// TailQ is the tail percentile as a fraction (0.99 for p99); 0 when
	// even p75 has fewer than ten samples beyond it.
	TailQ float64
	Tail  float64
}

// tailLadder is the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const tailBeyond = 10

// tailFor returns the highest ladder percentile with at least tailBeyond
// of n samples beyond it, or 0 when none qualifies.
func tailFor(n int) float64 {
	for _, q := range tailLadder {
		// The epsilon keeps 1000 × (1−0.99) from rounding to 9.999….
		if float64(n)*(1-q)+1e-9 >= tailBeyond {
			return q
		}
	}
	return 0
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks (the same rule as numpy's default).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// summarize applies the quantile rule to samples; it sorts them in place.
func summarize(samples []float64) timing {
	sort.Float64s(samples)
	t := timing{N: len(samples), Median: quantile(samples, 0.5)}
	if q := tailFor(len(samples)); q > 0 {
		t.TailQ, t.Tail = q, quantile(samples, q)
	}
	return t
}

// atQuantile is summarize's sibling for a metric whose name fixes the
// percentile (agg_p99_ms): it reports q when the rule allows it and the
// rule's lower percentile otherwise, so a short smoke run degrades to an
// honest tail instead of a p99 drawn from three samples.
func atQuantile(sorted []float64, q float64) (used, value float64) {
	used = q
	if allowed := tailFor(len(sorted)); allowed < q {
		used = allowed
	}
	if used == 0 {
		used = 0.5
	}
	return used, quantile(sorted, used)
}

func (t timing) String() string {
	if t.TailQ == 0 {
		return fmt.Sprintf("p50 %.4g (n=%d, too few for a tail)", t.Median, t.N)
	}
	return fmt.Sprintf("p50 %.4g  p%g %.4g (n=%d)", t.Median, 100*t.TailQ, t.Tail, t.N)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// ratio is a share printed with its base, per the reporting rule that
// no ratio appears without the count it was taken over.
type ratio struct {
	Num, Den float64
}

func (r ratio) value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%.6g / %.6g)", r.value(), r.Num, r.Den)
}
