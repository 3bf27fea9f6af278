// Package resource models end-system resource vectors and reservation
// ledgers for the QSA simulator.
//
// The paper (§2.1) attaches a resource requirement vector
// R = [r1, …, rm] to each service component and an availability vector
// RA to each peer. The evaluation (§4.1) uses m = 2 resource types —
// [cpu, memory] — with peer capacities between [100,100] and [1000,1000]
// abstract units. Admission control works by reservation: a session
// reserves R on every hosting peer (and bandwidth on every edge, see
// BandwidthLedger) for its whole duration, and releases on completion.
package resource

import (
	"fmt"
	"math"
	"strings"
)

// Vector is a vector of end-system resource quantities. Index meaning is
// positional and fixed per simulation; the paper's evaluation uses
// index 0 = CPU units, index 1 = memory units.
type Vector []float64

// Indices of the paper's two resource types.
const (
	CPU    = 0
	Memory = 1
)

// Vec2 builds the paper's two-dimensional [cpu, memory] vector.
func Vec2(cpu, mem float64) Vector { return Vector{cpu, mem} }

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Add returns v + o as a new vector. Dimension mismatch panics: it is a
// programming error, never a data condition.
func (v Vector) Add(o Vector) Vector {
	v.mustMatch(o)
	r := make(Vector, len(v))
	for i := range v {
		r[i] = v[i] + o[i]
	}
	return r
}

// Sub returns v − o as a new vector.
func (v Vector) Sub(o Vector) Vector {
	return v.SubInto(nil, o)
}

// SubInto computes v − o into dst (grown only when its capacity is
// insufficient) and returns it.
func (v Vector) SubInto(dst Vector, o Vector) Vector {
	v.mustMatch(o)
	if cap(dst) < len(v) {
		dst = make(Vector, len(v))
	}
	dst = dst[:len(v)]
	for i := range v {
		dst[i] = v[i] - o[i]
	}
	return dst
}

// Scale returns v scaled by k as a new vector.
func (v Vector) Scale(k float64) Vector {
	r := make(Vector, len(v))
	for i := range v {
		r[i] = v[i] * k
	}
	return r
}

// Fits reports whether every component of v is >= the corresponding
// component of req — i.e. availability v can admit requirement req.
func (v Vector) Fits(req Vector) bool {
	v.mustMatch(req)
	for i := range v {
		if v[i] < req[i] {
			return false
		}
	}
	return true
}

// NonNegative reports whether every component is >= 0 (NaN is not).
func (v Vector) NonNegative() bool {
	for _, x := range v {
		if !(x >= 0) {
			return false
		}
	}
	return true
}

// Sum returns the sum of components — a scalar load proxy.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// String renders e.g. "[100, 250]".
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%g", x)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func (v Vector) mustMatch(o Vector) {
	if len(v) != len(o) {
		// lint:allow panic-in-library dimension mismatch is a programming error, never a data condition (see Add)
		panic(fmt.Sprintf("resource: dimension mismatch %d vs %d", len(v), len(o)))
	}
}

// Ledger tracks reserved end-system resources against a fixed capacity.
// It is the per-peer admission-control state.
type Ledger struct {
	capacity Vector
	used     Vector
	active   int // number of live reservations, for load introspection
}

// NewLedger returns a ledger with the given capacity. Negative capacities
// are rejected.
func NewLedger(capacity Vector) (*Ledger, error) {
	if !capacity.NonNegative() {
		return nil, fmt.Errorf("resource: negative capacity %v", capacity)
	}
	return &Ledger{
		capacity: capacity.Clone(),
		used:     make(Vector, len(capacity)),
	}, nil
}

// Available returns a copy of the currently unreserved capacity.
func (l *Ledger) Available() Vector { return l.capacity.Sub(l.used) }

// AvailableInto writes the currently unreserved capacity into dst
// (grown only when needed) and returns it.
func (l *Ledger) AvailableInto(dst Vector) Vector { return l.capacity.SubInto(dst, l.used) }

// Active returns the number of live reservations.
func (l *Ledger) Active() int { return l.active }

// Sound reports whether every quantity is finite and non-negative. A NaN
// passes every comparison, so whatever books or waits on a quantity that
// arrived from outside checks it first.
func Sound(xs ...float64) bool {
	for _, x := range xs {
		if !(x >= 0) || math.IsInf(x, 1) {
			return false
		}
	}
	return true
}

// Reserve atomically reserves req if it is Sound and fits; it reports
// whether the reservation was admitted.
func (l *Ledger) Reserve(req Vector) bool {
	if !Sound(req...) {
		return false
	}
	if !l.Available().Fits(req) {
		return false
	}
	for i := range req {
		l.used[i] += req[i]
	}
	l.active++
	return true
}

// Release returns a previous reservation. Releasing more than was reserved
// panics — it indicates corrupted session accounting, which must not be
// silently absorbed.
func (l *Ledger) Release(req Vector) {
	l.capacity.mustMatch(req)
	for i := range req {
		l.used[i] -= req[i]
		if l.used[i] < -1e-9 {
			// lint:allow panic-in-library over-release means corrupted session accounting and must not be silently absorbed
			panic(fmt.Sprintf("resource: release of %v exceeds reservations (used now %v)", req, l.used))
		}
		if l.used[i] < 0 {
			l.used[i] = 0 // clamp float dust
		}
	}
	l.active--
	if l.active < 0 {
		// lint:allow panic-in-library negative reservation count means corrupted session accounting
		panic("resource: more releases than reservations")
	}
}
