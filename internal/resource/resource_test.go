package resource

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVectorOps(t *testing.T) {
	a := Vec2(10, 20)
	b := Vec2(3, 4)
	if got := a.Add(b); got[0] != 13 || got[1] != 24 {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got[0] != 7 || got[1] != 16 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(0.5); got[0] != 5 || got[1] != 10 {
		t.Fatalf("Scale = %v", got)
	}
	if a[0] != 10 || a[1] != 20 {
		t.Fatal("operations must not mutate the receiver")
	}
	if a.Sum() != 30 {
		t.Fatalf("Sum = %v", a.Sum())
	}
}

func TestFits(t *testing.T) {
	avail := Vec2(10, 10)
	if !avail.Fits(Vec2(10, 10)) {
		t.Fatal("exact fit must be admitted")
	}
	if avail.Fits(Vec2(10.1, 5)) || avail.Fits(Vec2(5, 10.1)) {
		t.Fatal("over-demand in any dimension must be rejected")
	}
	if !avail.Fits(Vec2(0, 0)) {
		t.Fatal("zero demand always fits")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch should panic")
		}
	}()
	Vec2(1, 2).Add(Vector{1})
}

func TestVectorString(t *testing.T) {
	if s := Vec2(100, 250).String(); s != "[100, 250]" {
		t.Fatalf("String = %q", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Vec2(1, 2)
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
	if Vector(nil).Clone() != nil {
		t.Fatal("Clone(nil) should be nil")
	}
}

func TestLedgerReserveRelease(t *testing.T) {
	l, err := NewLedger(Vec2(100, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !l.Reserve(Vec2(60, 40)) {
		t.Fatal("first reservation should succeed")
	}
	if l.Reserve(Vec2(50, 10)) {
		t.Fatal("over-capacity reservation admitted")
	}
	if !l.Reserve(Vec2(40, 10)) {
		t.Fatal("fitting reservation rejected")
	}
	if av := l.Available(); av[0] != 0 || av[1] != 50 {
		t.Fatalf("Available = %v", av)
	}
	if l.Active() != 2 {
		t.Fatalf("Active = %d", l.Active())
	}
	l.Release(Vec2(60, 40))
	if av := l.Available(); av[0] != 60 || av[1] != 90 {
		t.Fatalf("Available after release = %v", av)
	}
	if l.Active() != 1 {
		t.Fatalf("Active after release = %d", l.Active())
	}
}

// TestLedgerRejectsNegative: a reservation with a negative or
// non-finite component is refused and leaves the ledger as it was. A
// NaN passes every comparison, so without the check it was admitted and
// turned Available into NaN, after which any demand fitted.
func TestLedgerRejectsNegative(t *testing.T) {
	for _, c := range []struct {
		name string
		req  Vector
	}{
		{"negative", Vec2(-1, 0)},
		{"NaN CPU", Vec2(math.NaN(), 1)},
		{"NaN memory", Vec2(1, math.NaN())},
		{"+Inf", Vec2(math.Inf(1), 1)},
		{"-Inf", Vec2(math.Inf(-1), 1)},
	} {
		l, _ := NewLedger(Vec2(10, 10))
		if l.Reserve(c.req) {
			t.Errorf("%s: reservation %v admitted", c.name, c.req)
		}
		if av := l.Available(); av[0] != 10 || av[1] != 10 || l.Active() != 0 {
			t.Errorf("%s: refused reservation left Available %v, Active %d", c.name, av, l.Active())
		}
		if l.Reserve(Vec2(11, 1)) {
			t.Errorf("%s: over-capacity reservation admitted afterwards", c.name)
		}
	}
	for _, capacity := range []Vector{Vec2(-1, 0), Vec2(math.NaN(), 1)} {
		if _, err := NewLedger(capacity); err == nil {
			t.Errorf("capacity %v accepted", capacity)
		}
	}
}

func TestLedgerOverReleasePanics(t *testing.T) {
	l, _ := NewLedger(Vec2(10, 10))
	l.Reserve(Vec2(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("over-release should panic")
		}
	}()
	l.Release(Vec2(5, 5))
}

// Property: any sequence of admitted reservations never drives Available
// negative, and releasing them all restores full capacity.
func TestPropertyLedgerConservation(t *testing.T) {
	check := func(demands []uint8) bool {
		l, _ := NewLedger(Vec2(1000, 1000))
		var admitted []Vector
		for _, d := range demands {
			req := Vec2(float64(d), float64(d%97))
			if l.Reserve(req) {
				admitted = append(admitted, req)
			}
			if !l.Available().NonNegative() {
				return false
			}
		}
		for _, req := range admitted {
			l.Release(req)
		}
		av := l.Available()
		return av[0] == 1000 && av[1] == 1000 && l.Active() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
