package resource

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestPairNormalization(t *testing.T) {
	if Pair(3, 7) != Pair(7, 3) {
		t.Fatal("Pair must be order-insensitive")
	}
	k := Pair(9, 2)
	if k.Lo != 2 || k.Hi != 9 {
		t.Fatalf("Pair(9,2) = %+v", k)
	}
}

func constCap(kbps float64) func(a, b int) float64 {
	return func(a, b int) float64 { return kbps }
}

// mustLedger builds a ledger for tests where construction cannot fail.
func mustLedger(t *testing.T, capacity func(a, b int) float64) *BandwidthLedger {
	t.Helper()
	l, err := NewBandwidthLedger(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestBandwidthReserveRelease(t *testing.T) {
	l := mustLedger(t, constCap(1000))
	if !l.Reserve(1, 2, 600) {
		t.Fatal("reservation within capacity rejected")
	}
	if l.Reserve(2, 1, 600) {
		t.Fatal("reservation past capacity admitted (symmetric key)")
	}
	if !l.Reserve(2, 1, 400) {
		t.Fatal("exact-fit reservation rejected")
	}
	if av := l.Available(1, 2); av != 0 {
		t.Fatalf("Available = %v", av)
	}
	l.Release(1, 2, 600)
	if av := l.Available(2, 1); av != 600 {
		t.Fatalf("Available after release = %v", av)
	}
}

func TestBandwidthPairsIndependent(t *testing.T) {
	l := mustLedger(t, constCap(100))
	if !l.Reserve(1, 2, 100) || !l.Reserve(1, 3, 100) {
		t.Fatal("distinct pairs must not share capacity")
	}
	if l.ActivePairs() != 2 {
		t.Fatalf("ActivePairs = %d", l.ActivePairs())
	}
}

func TestBandwidthSparseCleanup(t *testing.T) {
	l := mustLedger(t, constCap(100))
	l.Reserve(1, 2, 40)
	l.Release(1, 2, 40)
	if l.ActivePairs() != 0 {
		t.Fatal("fully released pair must be evicted from the map")
	}
}

func TestBandwidthNegativeRejected(t *testing.T) {
	l := mustLedger(t, constCap(100))
	if l.Reserve(1, 2, -5) {
		t.Fatal("negative reservation admitted")
	}
}

func TestBandwidthOverReleasePanics(t *testing.T) {
	l := mustLedger(t, constCap(100))
	l.Reserve(1, 2, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release should panic")
		}
	}()
	l.Release(1, 2, 20)
}

func TestNilCapacityRejected(t *testing.T) {
	if _, err := NewBandwidthLedger(nil); err == nil {
		t.Fatal("nil capacity function must be rejected")
	}
}

// Property: reserve/release conservation per pair.
func TestPropertyBandwidthConservation(t *testing.T) {
	check := func(amounts []uint8) bool {
		l, err := NewBandwidthLedger(constCap(10000))
		if err != nil {
			return false
		}
		var admitted []float64
		for _, a := range amounts {
			amt := float64(a)
			if l.Reserve(5, 6, amt) {
				admitted = append(admitted, amt)
			}
			if l.Available(5, 6) < 0 {
				return false
			}
		}
		for _, amt := range admitted {
			l.Release(5, 6, amt)
		}
		return l.Available(5, 6) == 10000 && l.ActivePairs() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// mapLedger is the reference model of the bandwidth ledger: the map from
// normalized pair to reserved kbps it was first written as. The ledger's
// adjacency rows must reproduce it float for float.
type mapLedger struct {
	capacity func(a, b int) float64
	used     map[PairKey]float64
}

func (l *mapLedger) available(a, b int) float64 { return l.capacity(a, b) - l.used[Pair(a, b)] }

func (l *mapLedger) reserve(a, b int, kbps float64) bool {
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

// release reports whether it panicked rather than panicking.
func (l *mapLedger) release(a, b int, kbps float64) (panicked bool) {
	k := Pair(a, b)
	u := l.used[k] - kbps
	if u < -1e-6 {
		return true
	}
	if u <= 1e-9 {
		delete(l.used, k)
	} else {
		l.used[k] = u
	}
	return false
}

// releasePanics reports whether l.Release panicked.
func releasePanics(l *BandwidthLedger, a, b int, kbps float64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	l.Release(a, b, kbps)
	return false
}

// TestBandwidthLedgerMatchesReferenceModel drives the ledger and the map
// reference through one random reserve/release workload over a dozen
// peers, with amounts that do not add up exactly in floating point,
// releases that over- and under-shoot by amounts either side of both
// tolerances, and releases on pairs that hold nothing. After every step
// Available must be bit-equal on every pair in both orders, ActivePairs
// equal, and a release must panic in the ledger exactly when it does in
// the reference.
func TestBandwidthLedgerMatchesReferenceModel(t *testing.T) {
	const peers = 12
	capacity := func(a, b int) float64 { return float64(100 + (a*b+a+b)%5*37) }
	l := mustLedger(t, capacity)
	ref := &mapLedger{capacity: capacity, used: make(map[PairKey]float64)}
	rng := xrand.New(7)
	deltas := []float64{0, 1e-10, -1e-10, 5e-7, -5e-7, 2e-6, -2e-6}
	panics := 0
	for step := 0; step < 20000; step++ {
		a, b := rng.Intn(peers), rng.Intn(peers)
		if rng.Intn(2) == 0 {
			kbps := float64(rng.Intn(400)) * 0.1
			if rng.Intn(20) == 0 {
				kbps = -kbps
			}
			if got, want := l.Reserve(a, b, kbps), ref.reserve(a, b, kbps); got != want {
				t.Fatalf("step %d: Reserve(%d, %d, %v) = %v, reference %v", step, a, b, kbps, got, want)
			}
		} else {
			kbps := ref.used[Pair(a, b)]
			switch rng.Intn(3) {
			case 0:
				kbps *= rng.Float64()
			case 1:
				kbps = float64(rng.Intn(50)) * 0.3
			}
			kbps += deltas[rng.Intn(len(deltas))]
			want := ref.release(a, b, kbps)
			if got := releasePanics(l, a, b, kbps); got != want {
				t.Fatalf("step %d: Release(%d, %d, %v) panicked %v, reference %v", step, a, b, kbps, got, want)
			}
			if want {
				panics++
			}
		}
		if l.ActivePairs() != len(ref.used) {
			t.Fatalf("step %d: ActivePairs = %d, reference %d", step, l.ActivePairs(), len(ref.used))
		}
		for x := 0; x < peers; x++ {
			for y := 0; y < peers; y++ {
				got, want := l.Available(x, y), ref.available(x, y)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: Available(%d, %d) = %v, reference %v", step, x, y, got, want)
				}
			}
		}
	}
	if panics == 0 || len(ref.used) == 0 {
		t.Fatalf("%d panics, %d live pairs at the end: a path went untested", panics, len(ref.used))
	}
}

// TestBandwidthLedgerAllocs pins the live-pair paths at zero allocations:
// once a pair's row holds its entry, reserving more, reading and
// releasing part of it allocate nothing, and neither does emptying and
// refilling the entry's row.
func TestBandwidthLedgerAllocs(t *testing.T) {
	l := mustLedger(t, constCap(1000))
	l.Reserve(3, 8, 10)
	l.Reserve(8, 5, 10)
	avg := testing.AllocsPerRun(200, func() {
		l.Reserve(8, 3, 2.5)
		_ = l.Available(3, 8)
		l.Release(3, 8, 2.5)
		l.Release(5, 8, 10)
		l.Reserve(5, 8, 10)
	})
	if avg != 0 {
		t.Fatalf("live-pair reserve/available/release allocates %.1f/op, want 0", avg)
	}
	if l.ActivePairs() != 2 || l.Available(3, 8) != 990 {
		t.Fatalf("ActivePairs = %d, Available(3, 8) = %v, want 2 and 990", l.ActivePairs(), l.Available(3, 8))
	}
}
