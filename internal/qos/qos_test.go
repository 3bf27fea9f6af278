package qos

import (
	"testing"
	"testing/quick"
)

func TestSymbolicSatisfy(t *testing.T) {
	out := MustVector(Sym("format", "MPEG"))
	in := MustVector(Sym("format", "MPEG"))
	if !Satisfies(out, in) {
		t.Fatal("equal symbolic values must satisfy")
	}
	in2 := MustVector(Sym("format", "JPEG"))
	if Satisfies(out, in2) {
		t.Fatal("different symbolic values must not satisfy")
	}
}

func TestRangeContainment(t *testing.T) {
	cases := []struct {
		out, in Param
		want    bool
	}{
		{Range("fps", 10, 20), Range("fps", 0, 30), true},  // strict subset
		{Range("fps", 0, 30), Range("fps", 10, 20), false}, // superset
		{Range("fps", 10, 20), Range("fps", 10, 20), true}, // equal
		{Range("fps", 10, 35), Range("fps", 0, 30), false}, // overlaps above
		{Range("fps", -5, 20), Range("fps", 0, 30), false}, // overlaps below
		{Point("fps", 15), Range("fps", 0, 30), true},      // point in range
		{Point("fps", 31), Range("fps", 0, 30), false},     // point outside
		{Point("fps", 30), Range("fps", 0, 30), true},      // inclusive bound
	}
	for _, c := range cases {
		out := MustVector(c.out)
		in := MustVector(c.in)
		if got := Satisfies(out, in); got != c.want {
			t.Errorf("Satisfies(%v, %v) = %v, want %v", c.out, c.in, got, c.want)
		}
	}
}

func TestSymbolicVsRangeMismatch(t *testing.T) {
	out := MustVector(Sym("x", "a"))
	in := MustVector(Range("x", 0, 1))
	if Satisfies(out, in) {
		t.Fatal("symbolic output cannot satisfy range input")
	}
	if Satisfies(MustVector(Range("x", 0, 1)), MustVector(Sym("x", "a"))) {
		t.Fatal("range output cannot satisfy symbolic input")
	}
}

func TestMissingDimensionFails(t *testing.T) {
	out := MustVector(Sym("format", "MPEG"))
	in := MustVector(Sym("format", "MPEG"), Range("fps", 0, 30))
	if Satisfies(out, in) {
		t.Fatal("input dimension absent from output must fail")
	}
}

func TestExtraOutputDimensionsIgnored(t *testing.T) {
	out := MustVector(Sym("format", "MPEG"), Range("fps", 10, 20), Sym("res", "720p"))
	in := MustVector(Sym("format", "MPEG"))
	if !Satisfies(out, in) {
		t.Fatal("extra output dimensions must not break satisfaction")
	}
}

func TestEmptyInputAlwaysSatisfied(t *testing.T) {
	if !Satisfies(nil, nil) {
		t.Fatal("empty requirement must always be satisfied")
	}
	if !Satisfies(MustVector(Sym("x", "a")), nil) {
		t.Fatal("empty requirement must be satisfied by any output")
	}
}

func TestNewVectorRejectsDuplicates(t *testing.T) {
	if _, err := NewVector(Sym("x", "a"), Sym("x", "b")); err == nil {
		t.Fatal("duplicate dimension must be rejected")
	}
	if _, err := NewVector(Param{Name: ""}); err == nil {
		t.Fatal("empty name must be rejected")
	}
}

func TestRangePanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range with hi < lo should panic")
		}
	}()
	Range("x", 2, 1)
}

func TestGet(t *testing.T) {
	v := MustVector(Sym("a", "1"), Range("b", 0, 1))
	if p, ok := v.Get("b"); !ok || p.Lo != 0 || p.Hi != 1 {
		t.Fatalf("Get(b) = %v, %v", p, ok)
	}
	if _, ok := v.Get("c"); ok {
		t.Fatal("Get of absent dimension must report false")
	}
}

func TestCloneIndependence(t *testing.T) {
	v := MustVector(Sym("a", "1"))
	c := v.Clone()
	c[0].Sym = "2"
	if v[0].Sym != "1" {
		t.Fatal("Clone shares backing storage")
	}
	if Vector(nil).Clone() != nil {
		t.Fatal("Clone(nil) must be nil")
	}
}

// Property: the satisfy relation is reflexive for range vectors
// (Qout == Qin always matches) and antitone in the output range width.
func TestPropertyReflexive(t *testing.T) {
	check := func(lo int8, width uint8) bool {
		l, h := float64(lo), float64(lo)+float64(width)
		v := MustVector(Range("x", l, h))
		return Satisfies(v, v)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: shrinking the produced range can never break satisfaction.
func TestPropertyShrinkPreservesSatisfaction(t *testing.T) {
	check := func(lo int8, width, shrinkL, shrinkR uint8) bool {
		l, h := float64(lo), float64(lo)+float64(width)+2
		in := MustVector(Range("x", l, h))
		// Produced range inside [l, h]. Use int arithmetic: width+1 would
		// overflow uint8 at width=255.
		span := int(width) + 1
		pl := l + float64(int(shrinkL)%span)
		ph := h - float64(int(shrinkR)%span)
		if ph < pl {
			pl, ph = ph, pl
		}
		if pl < l {
			pl = l
		}
		if ph > h {
			ph = h
		}
		out := MustVector(Range("x", pl, ph))
		return Satisfies(out, in)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: satisfaction is transitive across range-only vectors: if A ⊑ B's
// input and the chain uses nested ranges, nesting composes.
func TestPropertyRangeTransitivity(t *testing.T) {
	check := func(lo int8, w1, w2, w3 uint8) bool {
		// c ⊆ b ⊆ a by construction
		aLo, aHi := float64(lo), float64(lo)+float64(w1)+float64(w2)+float64(w3)
		bLo, bHi := aLo+float64(w3)/2, aHi-float64(w3)/2
		if bHi < bLo {
			bLo, bHi = (aLo+aHi)/2, (aLo+aHi)/2
		}
		cLo, cHi := bLo+float64(w2)/4, bHi-float64(w2)/4
		if cHi < cLo {
			cLo, cHi = (bLo+bHi)/2, (bLo+bHi)/2
		}
		a := MustVector(Range("x", aLo, aHi))
		b := MustVector(Range("x", bLo, bHi))
		c := MustVector(Range("x", cLo, cHi))
		// c sat b and b sat a implies c sat a.
		if Satisfies(c, b) && Satisfies(b, a) {
			return Satisfies(c, a)
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorString(t *testing.T) {
	v := MustVector(Range("fps", 10, 30), Sym("format", "MPEG"), Point("res", 720))
	s := v.String()
	want := "{format=MPEG, fps=[10,30], res=720}"
	if s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}
