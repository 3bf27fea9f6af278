package obs

import (
	"math"
	"sync/atomic"
)

// LatencyHist is a log-bucketed histogram for latency-shaped values
// (HDR-histogram style): each power of two is split into 2^latSubBits
// linear sub-buckets, so the relative quantile-estimation error is
// bounded by 1/2^(latSubBits+1) ≈ 1.6% across the whole range — no
// a-priori bucket bounds needed.
//
// The covered range is [2^-30, 2^30) (≈ 1 ns to ≈ 34 years when the
// unit is seconds); values outside it clamp to the edge buckets, and
// non-positive values are tallied separately in Zeros (they have no
// logarithm). NaN observations are discarded. Observe is lock-free and
// a nil *LatencyHist is a no-op sink, like every other instrument here.
type LatencyHist struct {
	counts [nLat]atomic.Uint64
	zeros  atomic.Uint64 // observations ≤ 0
	count  atomic.Uint64 // all observations, zeros included
	sum    atomic.Uint64 // math.Float64bits of the running sum
}

const (
	// latSubBits linear sub-buckets per power of two.
	latSubBits = 5
	latSubs    = 1 << latSubBits
	// latMinExp is the unbiased exponent of the smallest bucket, 2^-30.
	latMinExp = -30
	// latOctaves powers of two are covered: [2^-30, 2^30).
	latOctaves = 60
	nLat       = latOctaves * latSubs
	// latBias is the IEEE-754 biased exponent of bucket row 0.
	latBias = 1023 + latMinExp
)

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist { return &LatencyHist{} }

// latIndex maps a positive finite value to its bucket, clamping values
// outside the covered range to the edge buckets. The bucket is read
// straight off the IEEE-754 representation: the exponent selects the
// octave and the top mantissa bits the linear sub-bucket.
func latIndex(v float64) int {
	bits := math.Float64bits(v)
	e := int(bits>>52) - latBias
	if e < 0 {
		return 0 // subnormals and anything below 2^-30
	}
	if e >= latOctaves {
		return nLat - 1 // +Inf and anything at or above 2^30
	}
	sub := int(bits>>(52-latSubBits)) & (latSubs - 1)
	return e<<latSubBits | sub
}

// latLow returns the inclusive lower bound of bucket i; the exclusive
// upper bound is latLow(i+1) (2^30 after the last bucket).
func latLow(i int) float64 {
	e := uint64(i>>latSubBits + latBias)
	sub := uint64(i & (latSubs - 1))
	return math.Float64frombits(e<<52 | sub<<(52-latSubBits))
}

// Observe records one value.
func (h *LatencyHist) Observe(v float64) {
	if h == nil || v != v { // NaN has no place on a latency axis
		return
	}
	if v <= 0 {
		h.zeros.Add(1)
	} else {
		h.counts[latIndex(v)].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		var next uint64
		if v > 0 {
			next = math.Float64bits(math.Float64frombits(old) + v)
		} else {
			next = old
		}
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *LatencyHist) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all positive observations (0 for nil).
func (h *LatencyHist) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LatencyBucket is one occupied bucket of a latency snapshot: Count
// observations in [Low, next bucket's Low). Idx is the dense bucket
// index — the merge key, stable across processes by construction.
type LatencyBucket struct {
	Idx   int     `json:"i"`
	Low   float64 `json:"low"`
	Count uint64  `json:"n"`
}

// LatencyValue is a point-in-time copy of one LatencyHist: sparse (only
// occupied buckets), mergeable, and quantile-queryable.
type LatencyValue struct {
	Name    string          `json:"name"`
	Count   uint64          `json:"count"`
	Sum     float64         `json:"sum"`
	Zeros   uint64          `json:"zeros,omitempty"`
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// SnapshotValue captures the histogram under the given name.
func (h *LatencyHist) SnapshotValue(name string) LatencyValue {
	v := LatencyValue{Name: name}
	if h == nil {
		return v
	}
	v.Count = h.count.Load()
	v.Sum = math.Float64frombits(h.sum.Load())
	v.Zeros = h.zeros.Load()
	for i := range h.counts {
		if n := h.counts[i].Load(); n > 0 {
			v.Buckets = append(v.Buckets, LatencyBucket{Idx: i, Low: latLow(i), Count: n})
		}
	}
	return v
}

// Merge returns the combination of two snapshots (e.g. the same
// instrument from several peers). Buckets align by index, so merging is
// exact; the receiver's name wins.
func (v LatencyValue) Merge(o LatencyValue) LatencyValue {
	out := LatencyValue{
		Name:  v.Name,
		Count: v.Count + o.Count,
		Sum:   v.Sum + o.Sum,
		Zeros: v.Zeros + o.Zeros,
	}
	i, j := 0, 0
	for i < len(v.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(v.Buckets) && v.Buckets[i].Idx < o.Buckets[j].Idx):
			out.Buckets = append(out.Buckets, v.Buckets[i])
			i++
		case i >= len(v.Buckets) || o.Buckets[j].Idx < v.Buckets[i].Idx:
			out.Buckets = append(out.Buckets, o.Buckets[j])
			j++
		default:
			b := v.Buckets[i]
			b.Count += o.Buckets[j].Count
			out.Buckets = append(out.Buckets, b)
			i, j = i+1, j+1
		}
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the recorded
// distribution. Within a bucket the mass is taken at the bucket
// midpoint, bounding the relative error by half the bucket width
// (≈ 1.6%). Conventions: an empty snapshot reports 0; q ≤ 0 reports
// the smallest recorded bucket's lower bound; q ≥ 1 the largest
// recorded bucket's upper bound; zeros sit at value 0.
func (v LatencyValue) Quantile(q float64) float64 {
	if v.Count == 0 || q != q {
		return 0
	}
	if q <= 0 {
		if v.Zeros > 0 {
			return 0
		}
		return v.Buckets[0].Low
	}
	if q >= 1 {
		if len(v.Buckets) == 0 {
			return 0
		}
		return latLow(v.Buckets[len(v.Buckets)-1].Idx + 1)
	}
	rank := q * float64(v.Count)
	cum := float64(v.Zeros)
	if cum >= rank {
		return 0
	}
	for _, b := range v.Buckets {
		cum += float64(b.Count)
		if cum >= rank {
			return (b.Low + latLow(b.Idx+1)) / 2
		}
	}
	if len(v.Buckets) == 0 {
		return 0
	}
	return latLow(v.Buckets[len(v.Buckets)-1].Idx + 1)
}
