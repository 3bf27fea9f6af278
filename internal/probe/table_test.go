package probe

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/xrand"
)

// refTable is the pre-tombstone reference implementation of the neighbor
// table's eviction bookkeeping: a plain map plus an insertion-order slice
// with O(M) removals. The real Table must preserve its observable
// behaviour exactly — same victims, same rejections, in the same order.
type refTable struct {
	cap     int
	entries map[topology.PeerID]*entry
	order   []topology.PeerID
}

func (t *refTable) insert(p topology.PeerID, e *entry) {
	t.entries[p] = e
	t.order = append(t.order, p)
}

func (t *refTable) remove(p topology.PeerID) {
	delete(t.entries, p)
	for i, q := range t.order {
		if q == p {
			t.order = append(t.order[:i], t.order[i+1:]...)
			return
		}
	}
}

func (t *refTable) evictFor(rank Rank, now float64) (topology.PeerID, bool) {
	var victim topology.PeerID
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

// tableEvictFor mirrors Manager.evictFor's decision on a bare Table and
// reports the victim, so the model comparison sees which peer went.
func tableEvictFor(t *Table, rank Rank, now float64) (topology.PeerID, bool) {
	var victim topology.PeerID
	found := false
	for _, s := range t.order {
		if s.pid == tombstonePID {
			continue
		}
		if s.e.expires <= now {
			victim, found = s.pid, true
			break
		}
		if s.e.rank > rank && !found {
			victim, found = s.pid, true
		}
	}
	if found {
		t.remove(victim)
	}
	return victim, found
}

// TestTableMatchesReferenceModel drives the tombstone table and the naive
// reference through an identical randomized insert/remove/evict workload
// and requires identical eviction decisions and membership throughout.
func TestTableMatchesReferenceModel(t *testing.T) {
	rng := xrand.New(42)
	real := &Table{cap: 16, pos: make(map[topology.PeerID]int)}
	ref := &refTable{cap: 16, entries: make(map[topology.PeerID]*entry)}

	now := 0.0
	for step := 0; step < 5000; step++ {
		now += 0.01
		p := topology.PeerID(rng.Intn(40))
		switch rng.Intn(4) {
		case 0: // insert (evicting if full), mirroring Resolve's shape
			if real.lookup(p) != nil {
				continue
			}
			rank := Rank(rng.Intn(6))
			expires := now + 0.05 + rng.Float64()
			canReal, canRef := true, true
			if real.Len() >= real.cap {
				vReal, okReal := tableEvictFor(real, rank, now)
				vRef, okRef := ref.evictFor(rank, now)
				if okReal != okRef || (okReal && vReal != vRef) {
					t.Fatalf("step %d: eviction diverged: real (%v,%v) ref (%v,%v)",
						step, vReal, okReal, vRef, okRef)
				}
				canReal, canRef = okReal, okRef
			}
			if canReal && canRef {
				real.insert(p, &entry{rank: rank, expires: expires})
				ref.insert(p, &entry{rank: rank, expires: expires})
			}
		case 1: // remove
			real.remove(p)
			ref.remove(p)
		case 2: // refresh
			if e := real.lookup(p); e != nil {
				e.expires = now + 1
				ref.entries[p].expires = now + 1
			}
		case 3: // pure eviction probe at a random rank
			rank := Rank(rng.Intn(6))
			vReal, okReal := tableEvictFor(real, rank, now)
			vRef, okRef := ref.evictFor(rank, now)
			if okReal != okRef || (okReal && vReal != vRef) {
				t.Fatalf("step %d: eviction diverged: real (%v,%v) ref (%v,%v)",
					step, vReal, okReal, vRef, okRef)
			}
		}
		if real.Len() != len(ref.entries) {
			t.Fatalf("step %d: size diverged: %d vs %d", step, real.Len(), len(ref.entries))
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
			if real.lookup(s.pid) != s.e {
				t.Fatalf("step %d: pos index stale for %v", step, s.pid)
			}
			i++
		}
		if i != len(ref.order) {
			t.Fatalf("step %d: live slot count %d vs ref %d", step, i, len(ref.order))
		}
	}
}

func TestTableCompaction(t *testing.T) {
	tab := &Table{cap: 1 << 30, pos: make(map[topology.PeerID]int)}
	for i := 0; i < 100; i++ {
		tab.insert(topology.PeerID(i), &entry{})
	}
	// Remove most of the table: tombstones must never stay in the
	// majority, and the survivors must keep their relative order.
	for i := 0; i < 90; i++ {
		tab.remove(topology.PeerID(i))
	}
	if tab.dead > len(tab.order)-tab.dead {
		t.Fatalf("tombstones in the majority: %d dead of %d", tab.dead, len(tab.order))
	}
	if tab.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tab.Len())
	}
	want := topology.PeerID(90)
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

// BenchmarkTableRemove measures removal at the paper's M=100 table size —
// the operation the tombstone design takes from O(M) to O(1).
func BenchmarkTableRemove(b *testing.B) {
	const m = 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tab := &Table{cap: m, pos: make(map[topology.PeerID]int)}
		for j := 0; j < m; j++ {
			tab.insert(topology.PeerID(j), &entry{})
		}
		b.StartTimer()
		for j := 0; j < m; j++ {
			tab.remove(topology.PeerID(j))
		}
	}
}

// BenchmarkResolveFull measures Resolve against a full M=100 table where
// every resolution triggers an eviction scan.
func BenchmarkResolveFull(b *testing.B) {
	net, err := topology.New(topology.Default(1, 400))
	if err != nil {
		b.Fatal(err)
	}
	m := NewManager(Config{M: 100, TTL: 10, Period: 1}, net)
	cands := make([]topology.PeerID, 1)
	// Fill the table with rank-1 entries, then resolve rank-0 newcomers:
	// each insert scans for (and finds) a strictly-worse victim.
	fill := make([]topology.PeerID, 100)
	for i := range fill {
		fill[i] = topology.PeerID(i + 1)
	}
	m.Resolve(0, fill, IndirectRank(1), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands[0] = topology.PeerID(101 + i%250)
		m.Resolve(0, cands, DirectRank(1), 0.5)
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
