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
//
// Peers are dense non-negative IDs (topology.PeerID). The live pairs sit
// in adjacency rows indexed by the pair's Lo peer: row lo lists each Hi
// with its reserved kbps, in no particular order. A row holds the few
// pairs a peer has sessions on, so a lookup is one short scan and no
// hash.
type BandwidthLedger struct {
	capacity func(a, b int) float64 // kbps; must be symmetric
	rows     [][]pairUse
	active   int // pairs with live reservations
}

// pairUse is the reserved bandwidth of the pair (lo, hi) in row lo.
type pairUse struct {
	hi   int
	used float64
}

// NewBandwidthLedger returns a ledger over the given capacity function.
// A nil capacity function is rejected.
func NewBandwidthLedger(capacity func(a, b int) float64) (*BandwidthLedger, error) {
	if capacity == nil {
		return nil, fmt.Errorf("resource: nil bandwidth capacity function")
	}
	return &BandwidthLedger{capacity: capacity}, nil
}

// Capacity returns the total bandwidth of the pair (a, b) in kbps.
func (l *BandwidthLedger) Capacity(a, b int) float64 { return l.capacity(a, b) }

// find returns the index of k's entry in row k.Lo, or −1.
func (l *BandwidthLedger) find(k PairKey) int {
	if k.Lo >= len(l.rows) {
		return -1
	}
	for i, u := range l.rows[k.Lo] {
		if u.hi == k.Hi {
			return i
		}
	}
	return -1
}

// used returns the kbps reserved on the pair at entry i of row k.Lo, 0
// when i is −1 (no reservation).
func (l *BandwidthLedger) used(k PairKey, i int) float64 {
	if i < 0 {
		return 0
	}
	return l.rows[k.Lo][i].used
}

// Available returns the unreserved bandwidth of the pair (a, b) in kbps.
func (l *BandwidthLedger) Available(a, b int) float64 {
	k := Pair(a, b)
	return l.capacity(a, b) - l.used(k, l.find(k))
}

// Reserve reserves kbps on the pair if available, reporting admission.
func (l *BandwidthLedger) Reserve(a, b int, kbps float64) bool {
	if kbps < 0 {
		return false
	}
	k := Pair(a, b)
	i := l.find(k)
	if l.capacity(a, b)-l.used(k, i) < kbps {
		return false
	}
	if i >= 0 {
		l.rows[k.Lo][i].used += kbps
	} else {
		l.add(k, 0+kbps) // a first reservation adds to nothing, as it always has
	}
	return true
}

// add appends the pair k, not yet in its row, with used kbps.
func (l *BandwidthLedger) add(k PairKey, used float64) {
	for k.Lo >= len(l.rows) {
		l.rows = append(l.rows, nil)
	}
	l.rows[k.Lo] = append(l.rows[k.Lo], pairUse{hi: k.Hi, used: used})
	l.active++
}

// Release returns a previous bandwidth reservation. Over-release panics.
func (l *BandwidthLedger) Release(a, b int, kbps float64) {
	k := Pair(a, b)
	i := l.find(k)
	u := l.used(k, i) - kbps
	if u < -1e-6 {
		// lint:allow panic-in-library over-release means corrupted session accounting and must not be silently absorbed
		panic(fmt.Sprintf("resource: bandwidth release %v kbps on %v exceeds reservations", kbps, k))
	}
	switch {
	case u > 1e-9 && i >= 0:
		l.rows[k.Lo][i].used = u
	case u > 1e-9:
		l.add(k, u)
	case i >= 0: // keep the rows sparse
		row := l.rows[k.Lo]
		last := len(row) - 1
		row[i] = row[last]
		l.rows[k.Lo] = row[:last]
		l.active--
	}
}

// ActivePairs returns the number of pairs with live reservations.
func (l *BandwidthLedger) ActivePairs() int { return l.active }
