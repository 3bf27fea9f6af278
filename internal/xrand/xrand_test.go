package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child and parent must not emit the same stream.
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			t.Fatalf("parent and child emitted identical value at %d", i)
		}
	}
}

func TestSplitLabeledStable(t *testing.T) {
	a := New(7).SplitLabeled("workload")
	b := New(7).SplitLabeled("workload")
	c := New(7).SplitLabeled("churn")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same label should derive same stream")
	}
	a2 := New(7).SplitLabeled("workload")
	if a2.Uint64() == c.Uint64() {
		t.Fatal("different labels should derive different streams")
	}
}

func TestSplitLabeledDoesNotConsumeParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.SplitLabeled("x")
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitLabeled must not advance the parent stream")
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	s := New(11)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := s.IntRange(5, 9)
		if v < 5 || v > 9 {
			t.Fatalf("IntRange(5,9) = %d", v)
		}
		seen[v] = true
	}
	for v := 5; v <= 9; v++ {
		if !seen[v] {
			t.Errorf("value %d never produced", v)
		}
	}
}

func TestIntRangeSingle(t *testing.T) {
	s := New(1)
	if v := s.IntRange(4, 4); v != 4 {
		t.Fatalf("IntRange(4,4) = %d", v)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(6)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	s := New(8)
	const rate = 2.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exp(rate)
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp(%v) mean = %v, want %v", rate, mean, 1/rate)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(10)
	for _, mean := range []float64{0.5, 3, 20, 200} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Errorf("Poisson(%v) empirical mean = %v", mean, got)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	s := New(1)
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

func TestNormMoments(t *testing.T) {
	s := New(12)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sq += v * v
	}
	mean, variance := sum/n, sq/n
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Norm mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Norm variance = %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(seed).PermInto(nil, int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPickEmpty(t *testing.T) {
	if New(1).Pick(0) != -1 {
		t.Fatal("Pick(0) must be -1")
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a window of inputs.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(21)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", p)
	}
}

func TestMixStringBoundariesAndDeterminism(t *testing.T) {
	if MixString(1, "abc") != MixString(1, "abc") {
		t.Fatal("MixString not deterministic")
	}
	if MixString(MixString(1, "ab"), "c") == MixString(MixString(1, "a"), "bc") {
		t.Fatal("field boundary ambiguity: (ab,c) collides with (a,bc)")
	}
	if MixString(1, "") == 1 {
		t.Fatal("empty string must still perturb the state")
	}
	if MixString(1, "x") == MixString(2, "x") {
		t.Fatal("seed ignored")
	}
}
