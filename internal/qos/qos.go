// Package qos models application-level quality-of-service parameters and
// the inter-component "satisfy" relation of the QSA paper (§2.1, eq. 1).
//
// Each service component consumes input with QoS level Qin and produces
// output with QoS level Qout; both are vectors of named parameters. A
// parameter is either a single symbolic value (data format "MPEG",
// resolution "720p") or a numeric range (frame rate [10,30] fps). Component
// A may feed component B iff Qout(A) satisfies Qin(B):
//
//	for every dimension i of Qin(B) there exists a dimension j of Qout(A)
//	with the same name such that
//	  - q_Aj == q_Bi          when q_Bi is a single value, or
//	  - q_Aj ⊆ q_Bi           when q_Bi is a range value.
package qos

import (
	"fmt"
	"sort"
	"strings"
)

// Param is one named QoS dimension. A Param is either symbolic (Sym != "")
// or a numeric range [Lo, Hi]. A single numeric value is the degenerate
// range Lo == Hi.
type Param struct {
	Name string
	Sym  string  // symbolic single value; "" means numeric range
	Lo   float64 // range lower bound (inclusive)
	Hi   float64 // range upper bound (inclusive)
}

// Symbolic reports whether the parameter is a single symbolic value.
func (p Param) Symbolic() bool { return p.Sym != "" }

// Sym returns a symbolic parameter.
func Sym(name, value string) Param { return Param{Name: name, Sym: value} }

// Range returns a numeric range parameter [lo, hi].
func Range(name string, lo, hi float64) Param {
	if hi < lo {
		// lint:allow panic-in-library constructor contract for literals; input parsers (spec, netproto) validate bounds first
		panic(fmt.Sprintf("qos: range %q has hi %v < lo %v", name, hi, lo))
	}
	return Param{Name: name, Lo: lo, Hi: hi}
}

// Point returns a single numeric value parameter (degenerate range).
func Point(name string, v float64) Param { return Param{Name: name, Lo: v, Hi: v} }

// satisfies reports whether an output parameter out can feed an input
// requirement in (same dimension assumed).
func satisfies(out, in Param) bool {
	if in.Symbolic() || out.Symbolic() {
		return in.Sym == out.Sym
	}
	// The produced range must fall entirely inside the accepted range.
	return out.Lo >= in.Lo && out.Hi <= in.Hi
}

// String renders a parameter, e.g. `format=MPEG` or `fps=[10,30]`.
func (p Param) String() string {
	if p.Symbolic() {
		return fmt.Sprintf("%s=%s", p.Name, p.Sym)
	}
	// A degenerate range stores Lo and Hi as the same bits (see Point).
	if p.Lo == p.Hi {
		return fmt.Sprintf("%s=%g", p.Name, p.Lo)
	}
	return fmt.Sprintf("%s=[%g,%g]", p.Name, p.Lo, p.Hi)
}

// Vector is an ordered set of QoS parameters, one per dimension name.
type Vector []Param

// NewVector builds a vector, rejecting duplicate dimension names.
func NewVector(params ...Param) (Vector, error) {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if p.Name == "" {
			return nil, fmt.Errorf("qos: parameter with empty name")
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("qos: duplicate dimension %q", p.Name)
		}
		seen[p.Name] = true
	}
	v := make(Vector, len(params))
	copy(v, params)
	return v, nil
}

// MustVector is NewVector that panics on error; for literals in tests and
// catalog generation.
func MustVector(params ...Param) Vector {
	v, err := NewVector(params...)
	if err != nil {
		// lint:allow panic-in-library documented Must-variant contract for literals in tests and catalog generation
		panic(err)
	}
	return v
}

// Get returns the parameter with the given dimension name.
func (v Vector) Get(name string) (Param, bool) {
	for _, p := range v {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Dim returns the number of dimensions (paper notation Dim(Q)).
func (v Vector) Dim() int { return len(v) }

// Clone returns an independent copy.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// String renders the vector with dimensions sorted by name.
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, p := range v {
		parts[i] = p.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// Satisfies implements the paper's relation "out ⊑ in" (eq. 1): every
// dimension required by in must be covered by a same-named dimension of out
// whose value matches (symbolic equality) or is contained (range).
// An empty in is satisfied by anything; a dimension of in absent from out
// fails the relation.
func Satisfies(out, in Vector) bool {
	for _, req := range in {
		prod, ok := out.Get(req.Name)
		if !ok || !satisfies(prod, req) {
			return false
		}
	}
	return true
}
