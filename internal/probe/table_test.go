package probe

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// refEntry is the reference model's per-neighbor state.
type refEntry struct {
	rank    Rank
	expires float64
}

// refTable is the pre-tombstone reference implementation of the neighbor
// table's eviction bookkeeping: a plain map plus an insertion-order slice
// with O(M) removals. The real table must preserve its observable
// behaviour exactly — same victims, same rejections, in the same order.
type refTable struct {
	cap     int
	entries map[int32]*refEntry
	order   []int32
}

func (t *refTable) insert(p int32, e *refEntry) {
	t.entries[p] = e
	t.order = append(t.order, p)
}

func (t *refTable) remove(p int32) {
	delete(t.entries, p)
	for i, q := range t.order {
		if q == p {
			t.order = append(t.order[:i], t.order[i+1:]...)
			return
		}
	}
}

func (t *refTable) evictFor(rank Rank, now float64) (int32, bool) {
	var victim int32
	found := false
	for _, p := range t.order {
		e := t.entries[p]
		if e.expires <= now {
			victim, found = p, true
			break
		}
		if e.rank > rank && !found {
			victim, found = p, true
		}
	}
	if found {
		t.remove(victim)
	}
	return victim, found
}

// testDim is the availability dimension the table tests store.
const testDim = 2

// vecOf is the availability vector the table tests store for p.
func vecOf(p int32) [testDim]float64 { return [testDim]float64{float64(p), -float64(p) / 2} }

// insertWith inserts p the way Resolve does and writes p's vector into
// its availability row.
func insertWith(tab *table, p int32, rank Rank, expires float64) {
	i := tab.insert(p, rank, expires)
	v := vecOf(p)
	copy(tab.row(i, testDim), v[:])
}

// checkSlab requires the table's layout invariants: order within the
// slack bound, the slab dim × len(order) long, every slot index entry
// pointing at its own slot, and every live neighbor's row still holding
// its vector.
func checkSlab(t *testing.T, step int, tab *table) {
	t.Helper()
	if c, bound := cap(tab.order), tab.slack(); c > bound {
		t.Fatalf("step %d: cap(order) = %d, above the slack bound %d", step, c, bound)
	}
	if len(tab.avail) != tab.dim*len(tab.order) {
		t.Fatalf("step %d: slab holds %d floats for %d slots of dim %d",
			step, len(tab.avail), len(tab.order), tab.dim)
	}
	for i, s := range tab.order {
		if s.pid == tombstonePID {
			continue
		}
		if j, ok := tab.find(s.pid); !ok || int(j) != i {
			t.Fatalf("step %d: slot index stale for %v", step, s.pid)
		}
		want := vecOf(s.pid)
		if got := tab.row(int32(i), testDim); got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("step %d: neighbor %v's vector is %v, want %v", step, s.pid, got, want)
		}
	}
}

// TestTableMatchesReferenceModel drives the slot table and the naive
// reference through an identical randomized insert/remove/evict workload
// and requires identical eviction decisions and membership throughout,
// with the slab following every neighbor through every compaction.
func TestTableMatchesReferenceModel(t *testing.T) {
	rng := xrand.New(42)
	real := newTable(16)
	ref := &refTable{cap: 16, entries: make(map[int32]*refEntry)}

	now := 0.0
	for step := 0; step < 5000; step++ {
		now += 0.01
		p := int32(rng.Intn(40))
		switch rng.Intn(4) {
		case 0: // insert (evicting if full), mirroring Resolve's shape
			if _, ok := real.find(p); ok {
				continue
			}
			rank := Rank(rng.Intn(6))
			expires := now + 0.05 + rng.Float64()
			canReal, canRef := true, true
			if real.size() >= real.cap {
				vReal, okReal := real.evictFor(rank, now)
				vRef, okRef := ref.evictFor(rank, now)
				if okReal != okRef || (okReal && vReal != vRef) {
					t.Fatalf("step %d: eviction diverged: real (%v,%v) ref (%v,%v)",
						step, vReal, okReal, vRef, okRef)
				}
				canReal, canRef = okReal, okRef
			}
			if canReal && canRef {
				insertWith(real, p, rank, expires)
				ref.insert(p, &refEntry{rank: rank, expires: expires})
			}
		case 1: // remove
			real.remove(p)
			ref.remove(p)
		case 2: // refresh
			if i, ok := real.find(p); ok {
				rank := Rank(rng.Intn(6))
				real.renew(i, rank, now+1)
				e := ref.entries[p]
				e.rank, e.expires = min(e.rank, rank), now+1
			}
		case 3: // pure eviction probe at a random rank
			rank := Rank(rng.Intn(6))
			vReal, okReal := real.evictFor(rank, now)
			vRef, okRef := ref.evictFor(rank, now)
			if okReal != okRef || (okReal && vReal != vRef) {
				t.Fatalf("step %d: eviction diverged: real (%v,%v) ref (%v,%v)",
					step, vReal, okReal, vRef, okRef)
			}
		}
		if real.size() != len(ref.entries) {
			t.Fatalf("step %d: size diverged: %d vs %d", step, real.size(), len(ref.entries))
		}
		// Insertion order of live members must match exactly.
		i := 0
		for _, s := range real.order {
			if s.pid == tombstonePID {
				continue
			}
			if i >= len(ref.order) || s.pid != ref.order[i] {
				t.Fatalf("step %d: order diverged at live slot %d", step, i)
			}
			i++
		}
		if i != len(ref.order) {
			t.Fatalf("step %d: live slot count %d vs ref %d", step, i, len(ref.order))
		}
		checkSlab(t, step, real)
		checkBounds(t, step, real)
		checkIndex(t, step, real, func(p int32) bool { _, ok := ref.entries[p]; return ok }, 40)
	}
}

// checkIndex requires the slot index to name exactly the live pids below
// n: every member found at its own slot (checkSlab), every other pid —
// evicted, removed or never inserted — absent. Buckets in use, live or
// deleted, stand for distinct slots of order, so at least half the
// buckets stay empty.
func checkIndex(t *testing.T, step int, tab *table, member func(int32) bool, n int32) {
	t.Helper()
	for p := int32(0); p < n; p++ {
		i, ok := tab.find(p)
		if ok != member(p) {
			t.Fatalf("step %d: slot index finds %v: %v, want %v", step, p, ok, member(p))
		}
		if ok && tab.order[i].pid != p {
			t.Fatalf("step %d: slot index sends %v to slot %d of %v", step, p, i, tab.order[i].pid)
		}
	}
	live, deleted := 0, 0
	for _, v := range tab.idx {
		switch {
		case v > 0:
			live++
		case v == idxDeleted:
			deleted++
		}
	}
	if live != tab.size() || live+deleted > len(tab.order) || 2*(live+deleted) > len(tab.idx) {
		t.Fatalf("step %d: %d live and %d deleted buckets of %d for %d slots, %d live",
			step, live, deleted, len(tab.idx), len(tab.order), tab.size())
	}
}

// checkBounds requires that the table's eviction bounds hold every live
// slot: no expiry below minExpires, no rank above maxRank.
func checkBounds(t *testing.T, step int, tab *table) {
	t.Helper()
	for _, s := range tab.order {
		if s.pid == tombstonePID {
			continue
		}
		if s.expires < tab.minExpires {
			t.Fatalf("step %d: neighbor %v expires at %v, below the bound %v", step, s.pid, s.expires, tab.minExpires)
		}
		if s.rank > tab.maxRank {
			t.Fatalf("step %d: neighbor %v has rank %v, above the bound %v", step, s.pid, s.rank, tab.maxRank)
		}
	}
}

func TestTableCompaction(t *testing.T) {
	tab := newTable(1 << 30)
	for i := int32(0); i < 100; i++ {
		insertWith(tab, i, 0, 0)
		checkSlab(t, int(i), tab)
	}
	// Remove most of the table: tombstones must never stay in the
	// majority, and the survivors must keep their relative order and
	// their vectors.
	for i := int32(0); i < 90; i++ {
		tab.remove(i)
		checkSlab(t, 100+int(i), tab)
	}
	if tab.dead > len(tab.order)-tab.dead {
		t.Fatalf("tombstones in the majority: %d dead of %d", tab.dead, len(tab.order))
	}
	if tab.size() != 10 {
		t.Fatalf("size = %d, want 10", tab.size())
	}
	want := int32(90)
	for _, s := range tab.order {
		if s.pid == tombstonePID {
			continue
		}
		if s.pid != want {
			t.Fatalf("order corrupted: got %v, want %v", s.pid, want)
		}
		want++
	}
}

// TestTableSlackBound runs a full M=100 table through many evictions: an
// insert into a full order slice of 5M/4 slots compacts instead of
// growing, so the slice never holds more than 125 slots.
func TestTableSlackBound(t *testing.T) {
	const m = 100
	tab := newTable(m)
	compactions := 0
	for i := int32(0); i < 20*m; i++ {
		if tab.size() >= m {
			if _, ok := tab.evictFor(0, float64(i)); !ok {
				t.Fatalf("insert %d: no expired victim", i)
			}
		}
		before := len(tab.order)
		insertWith(tab, i, 0, float64(i)+0.5)
		if len(tab.order) < before {
			compactions++
		}
		checkSlab(t, int(i), tab)
	}
	if cap(tab.order) != tab.slack() || compactions == 0 {
		t.Fatalf("cap(order) = %d after %d compactions, want the slack bound %d",
			cap(tab.order), compactions, tab.slack())
	}
}

// TestTableDimensionMismatchPanics checks that the slab's stride, fixed
// by the first vector stored, refuses a vector of another dimension.
func TestTableDimensionMismatchPanics(t *testing.T) {
	tab := newTable(4)
	insertWith(tab, 1, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("a 3-dimensional vector in a 2-dimensional slab must panic")
		}
	}()
	tab.row(0, 3)
}

// BenchmarkTableRemove measures removal at the paper's M=100 table size —
// the operation the tombstone design takes from O(M) to O(1).
func BenchmarkTableRemove(b *testing.B) {
	const m = 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tab := newTable(m)
		for j := int32(0); j < m; j++ {
			insertWith(tab, j, 0, 0)
		}
		b.StartTimer()
		for j := int32(0); j < m; j++ {
			tab.remove(j)
		}
	}
}

// newcomerShape builds a full M=100 table whose entries expire one per
// call: each resolve lands 0.011 min after the last with a TTL of 1 min,
// so from the first call on every call evicts the oldest (expired) entry,
// then inserts and probes a newcomer.
func newcomerShape(tb testing.TB) (m *Manager, resolve func()) {
	tb.Helper()
	net, err := topology.New(topology.Default(1, 400))
	if err != nil {
		tb.Fatal(err)
	}
	m = NewManager(Config{M: 100, TTL: 1, Period: 1}, net)
	cands := make([]topology.PeerID, 1)
	n := 0
	resolve = func() {
		cands[0] = topology.PeerID(1 + n%250)
		m.Resolve(0, cands, DirectRank(1), 0.011*float64(n))
		n++
	}
	for i := 0; i < 100; i++ {
		resolve()
	}
	return m, resolve
}

// BenchmarkResolveFull measures Resolve's newcomer path against a full
// M=100 table: every call scans for a victim, evicts it, and inserts and
// probes a newcomer.
func BenchmarkResolveFull(b *testing.B) {
	_, resolve := newcomerShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolve()
	}
}

// TestResolveNewcomerAllocs pins the newcomer path's allocation budget:
// with the table full and its slab at the slack bound, evicting a
// neighbor and inserting and probing another allocates nothing.
func TestResolveNewcomerAllocs(t *testing.T) {
	m, resolve := newcomerShape(t)
	for i := 0; i < 200; i++ {
		resolve() // reach the slack bound and the slot index's final size
	}
	before := m.Stats()
	avg := testing.AllocsPerRun(200, resolve)
	if avg != 0 {
		t.Fatalf("newcomer Resolve allocates %.1f/op, want 0", avg)
	}
	s := m.Stats()
	if s.Evictions-before.Evictions != 201 || s.Probes-before.Probes != 201 {
		t.Fatalf("stats %+v -> %+v, want one eviction and one probe per call", before, s)
	}
}

// TestResolveSteadyStateAllocs pins Resolve's allocation budget in steady
// state: every candidate already has a table entry, and each call lands
// one probe period later, so every entry is re-measured into its own
// recycled availability vector. One added allocation fails the gate.
func TestResolveSteadyStateAllocs(t *testing.T) {
	net, err := topology.New(topology.Default(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{M: 100, TTL: 10, Period: 1}, net)
	cands := make([]topology.PeerID, 20)
	for i := range cands {
		cands[i] = topology.PeerID(i + 1)
	}
	now := 0.0
	m.Resolve(0, cands, DirectRank(1), now)
	avg := testing.AllocsPerRun(200, func() {
		now += 1
		m.Resolve(0, cands, DirectRank(1), now)
	})
	if avg != 0 {
		t.Fatalf("steady-state Resolve allocates %.1f/op, want 0", avg)
	}
	if s := m.Stats(); s.Probes != 20*202 {
		t.Fatalf("probes = %d, want every candidate re-measured on every call (%d)", s.Probes, 20*202)
	}
}
