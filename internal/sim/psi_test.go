package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRatio(t *testing.T) {
	var r Ratio
	if !math.IsNaN(r.Value()) {
		t.Fatal("empty ratio must be NaN")
	}
	if r.String() != "n/a (0/0)" {
		t.Fatalf("String = %q", r.String())
	}
	r = Ratio{Success: 2, Failure: 1}
	if r.Total() != 3 {
		t.Fatalf("Total = %d", r.Total())
	}
	if math.Abs(r.Value()-2.0/3) > 1e-12 {
		t.Fatalf("Value = %v", r.Value())
	}
	if r.String() != "66.7% (2/3)" {
		t.Fatalf("String = %q", r.String())
	}
}

// A window the sampler cannot bucket by is refused; zero means the default.
func TestSamplerRejectsBadWindow(t *testing.T) {
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		c := Config{Seed: 1, Peers: 10, Duration: 10, SampleWindow: w}
		if _, err := New(c); err == nil {
			t.Errorf("window %v accepted", w)
		}
	}
	c := Config{Seed: 1, Peers: 10, Duration: 10}
	if err := c.fillDefaults(); err != nil || c.SampleWindow != 2 {
		t.Fatalf("zero window: SampleWindow = %v, err = %v", c.SampleWindow, err)
	}
}

func TestSamplerWindows(t *testing.T) {
	s := sampler{window: 2}
	for _, rec := range []struct {
		t  float64
		ok bool
	}{{0.5, true}, {1.9, false}, {2.1, true}, {6.5, true}, {9, false}} { // window [6,8) after a gap at [4,6); [8,10) past until
		s.record(rec.t, rec.ok)
	}
	pts := s.series(8)
	if len(pts) != 3 {
		t.Fatalf("series = %v", pts)
	}
	if pts[0].Time != 2 || pts[0].Value != 0.5 || pts[0].N != 2 {
		t.Fatalf("window 0 = %+v", pts[0])
	}
	if pts[1].Time != 4 || pts[1].Value != 1 {
		t.Fatalf("window 1 = %+v", pts[1])
	}
	if pts[2].Time != 8 {
		t.Fatalf("window 2 = %+v", pts[2])
	}
}

// Property: the windows account for every outcome, in time order, and
// every window value is a valid ratio.
func TestPropertySamplerConsistent(t *testing.T) {
	check := func(events []struct {
		T  uint8
		OK bool
	}) bool {
		s := sampler{window: 2}
		var succ uint64
		for _, e := range events {
			s.record(float64(e.T), e.OK)
			if e.OK {
				succ++
			}
		}
		var n, ok uint64
		last := 0.0
		for _, p := range s.series(math.Inf(1)) {
			if p.N == 0 || p.Time <= last || p.Value < 0 || p.Value > 1 {
				return false
			}
			last = p.Time
			n += p.N
			ok += uint64(math.Round(p.Value * float64(p.N)))
		}
		return n == uint64(len(events)) && ok == succ
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
