package resource

import "fmt"

// PairKey identifies an unordered peer pair. The paper models the
// end-to-end available bandwidth between two peers as the bottleneck
// bandwidth along the network path (§4.1), a symmetric property, so keys
// are normalized to lo <= hi.
type PairKey struct {
	Lo, Hi int
}

// Pair returns the normalized key for peers a and b.
func Pair(a, b int) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey{Lo: a, Hi: b}
}

// BandwidthLedger tracks bandwidth reservations per peer pair against a
// capacity function. Capacities are not stored: for a 10⁴-peer grid the
// full pairwise matrix would be 10⁸ entries, so capacity is a pure function
// (hash-derived in the topology package) and only pairs with live
// reservations consume memory.
type BandwidthLedger struct {
	capacity func(a, b int) float64 // kbps; must be symmetric
	used     map[PairKey]float64
}

// NewBandwidthLedger returns a ledger over the given capacity function.
// A nil capacity function is rejected.
func NewBandwidthLedger(capacity func(a, b int) float64) (*BandwidthLedger, error) {
	if capacity == nil {
		return nil, fmt.Errorf("resource: nil bandwidth capacity function")
	}
	return &BandwidthLedger{capacity: capacity, used: make(map[PairKey]float64)}, nil
}

// Capacity returns the total bandwidth of the pair (a, b) in kbps.
func (l *BandwidthLedger) Capacity(a, b int) float64 { return l.capacity(a, b) }

// Available returns the unreserved bandwidth of the pair (a, b) in kbps.
func (l *BandwidthLedger) Available(a, b int) float64 {
	return l.capacity(a, b) - l.used[Pair(a, b)]
}

// Reserve reserves kbps on the pair if available, reporting admission.
func (l *BandwidthLedger) Reserve(a, b int, kbps float64) bool {
	if kbps < 0 {
		return false
	}
	k := Pair(a, b)
	if l.capacity(a, b)-l.used[k] < kbps {
		return false
	}
	l.used[k] += kbps
	return true
}

// Release returns a previous bandwidth reservation. Over-release panics.
func (l *BandwidthLedger) Release(a, b int, kbps float64) {
	k := Pair(a, b)
	u := l.used[k] - kbps
	if u < -1e-6 {
		// lint:allow panic-in-library over-release means corrupted session accounting and must not be silently absorbed
		panic(fmt.Sprintf("resource: bandwidth release %v kbps on %v exceeds reservations", kbps, k))
	}
	if u <= 1e-9 {
		delete(l.used, k) // keep the map sparse
	} else {
		l.used[k] = u
	}
}

// ActivePairs returns the number of pairs with live reservations.
func (l *BandwidthLedger) ActivePairs() int { return len(l.used) }
