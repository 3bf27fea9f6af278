package chord

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// oracle is the index's reference model: the flat sorted slice the ring
// used to keep, with the original search expressions.
type oracle []ID

func (o oracle) pos(target ID) int {
	return sort.Search(len(o), func(i int) bool { return o[i] >= target })
}

func (o oracle) has(id ID) bool {
	i := o.pos(id)
	return i < len(o) && o[i] == id
}

func (o oracle) ceil(target ID) ID { return o[o.pos(target)%len(o)] }

func (o oracle) after(target ID) ID {
	return o[sort.Search(len(o), func(i int) bool { return o[i] > target })%len(o)]
}

func (o oracle) before(target ID) ID { return o[(o.pos(target)+len(o)-1)%len(o)] }

// hOf is the handle the index tests file each id under: any fixed
// function of the id lets a read be checked against the oracle.
func hOf(id ID) Handle { return Handle(xrand.Mix64(id) >> 33) }

// checkIndex compares every read the ring makes of the index with the
// oracle, at the probe ids and at each probe's neighbours, and checks the
// structural invariants the searches lean on.
func checkIndex(t *testing.T, x *index, o oracle, probes []ID) {
	t.Helper()
	if x.size != len(o) {
		t.Fatalf("size = %d, oracle %d", x.size, len(o))
	}
	all := x.appendAll(nil)
	if len(all) != len(o) {
		t.Fatalf("iteration yields %d entries, oracle %d", len(all), len(o))
	}
	for i, e := range all {
		if e.id != o[i] || e.h != hOf(e.id) {
			t.Fatalf("entry %d = {%d, %d}, oracle id %d", i, e.id, e.h, o[i])
		}
	}
	if len(x.blocks) != len(x.firsts) {
		t.Fatalf("%d blocks, %d directory entries", len(x.blocks), len(x.firsts))
	}
	for b, blk := range x.blocks {
		if len(blk) == 0 || len(blk) > blockCap {
			t.Fatalf("block %d holds %d entries", b, len(blk))
		}
		if x.firsts[b] != blk[0].id {
			t.Fatalf("firsts[%d] = %d, block starts at %d", b, x.firsts[b], blk[0].id)
		}
		if cap(blk) != blockCap {
			t.Fatalf("block %d has capacity %d, not %d", b, cap(blk), blockCap)
		}
	}
	if len(o) == 0 {
		if x.ceil(0) != noEntry || x.after(0) != noEntry || x.before(0) != noEntry || x.has(0) {
			t.Fatal("empty index returned a node")
		}
		return
	}
	for _, p := range probes {
		for _, target := range []ID{p - 1, p, p + 1} {
			if got, want := x.has(target), o.has(target); got != want {
				t.Fatalf("has(%d) = %v, oracle %v", target, got, want)
			}
			if got, want := x.ceil(target).id, o.ceil(target); got != want {
				t.Fatalf("ceil(%d) = %d, oracle %d", target, got, want)
			}
			if got, want := x.after(target).id, o.after(target); got != want {
				t.Fatalf("after(%d) = %d, oracle %d", target, got, want)
			}
			if got, want := x.before(target).id, o.before(target); got != want {
				t.Fatalf("before(%d) = %d, oracle %d", target, got, want)
			}
		}
		k := min(5, len(o))
		got := x.appendAfter(nil, p, k)
		cur := p
		for j := 0; j < k; j++ {
			cur = o.after(cur)
			if got[j] != hOf(cur) {
				t.Fatalf("appendAfter(%d)[%d] = handle %d, oracle id %d", p, j, got[j], cur)
			}
		}
		got = x.appendBefore(nil, p, k)
		cur = p
		for j := 0; j < k; j++ {
			cur = o.before(cur)
			if got[j] != hOf(cur) {
				t.Fatalf("appendBefore(%d)[%d] = handle %d, oracle id %d", p, j, got[j], cur)
			}
		}
	}
}

// TestIndexMatchesSortedSliceOracle drives the block index and a plain
// sorted slice through the same randomized inserts and removals over id
// sets chosen to hit the block machinery: both ends of the id space,
// dense runs that land in one block and split it, and drains that remove
// a block's last entry — including the first and last blocks, where the
// wrap lives.
func TestIndexMatchesSortedSliceOracle(t *testing.T) {
	rng := xrand.New(17)
	ends := []ID{0, 1, ^ID(0), ^ID(0) - 1}
	var dense, clustered, spread []ID
	for i := 0; i < 3*blockCap; i++ {
		dense = append(dense, ID(i))
		spread = append(spread, rng.Uint64())
	}
	for _, base := range []ID{0, 1 << 20, 1 << 40, ^ID(0) - 2*blockCap} {
		for i := 0; i < 2*blockCap+1; i++ {
			clustered = append(clustered, base+ID(i))
		}
	}
	pools := []struct {
		name string
		ids  []ID
	}{
		{"ends", ends},
		{"dense", dense},
		{"clustered", clustered},
		{"spread", append(spread, ends...)},
	}
	for _, p := range pools {
		pool := p.ids
		t.Run(p.name, func(t *testing.T) {
			var x index
			var o oracle
			probes := append([]ID{0, ^ID(0), 1 << 63}, pool[:min(len(pool), 64)]...)
			step := func(id ID) {
				if o.has(id) {
					if !x.remove(id) {
						t.Fatalf("remove(%d) found nothing", id)
					}
					o = slices.Delete(o, o.pos(id), o.pos(id)+1)
				} else {
					if x.remove(id) {
						t.Fatalf("remove(%d) removed an absent id", id)
					}
					x.insert(id, hOf(id))
					o = slices.Insert(o, o.pos(id), id)
				}
			}
			// Fill in pool order (sequential for the dense pools: every
			// insert lands at the end of the last block), then churn at
			// random, then drain in pool order so whole blocks empty from
			// the front.
			for i, id := range pool {
				step(id)
				if i%97 == 0 {
					checkIndex(t, &x, o, probes)
				}
			}
			checkIndex(t, &x, o, probes)
			if len(pool) > blockCap && len(x.blocks) < 2 {
				t.Fatalf("%d entries in %d block(s): nothing split", x.size, len(x.blocks))
			}
			for i := 0; i < 4*len(pool); i++ {
				step(pool[rng.Intn(len(pool))])
				if i%97 == 0 {
					checkIndex(t, &x, o, probes)
				}
			}
			checkIndex(t, &x, o, probes)
			for i, id := range pool {
				if o.has(id) {
					step(id)
				}
				if i%97 == 0 {
					checkIndex(t, &x, o, probes)
				}
			}
			checkIndex(t, &x, o, probes)
			if x.size != 0 || len(x.blocks) != 0 {
				t.Fatalf("drained index keeps %d entries in %d blocks", x.size, len(x.blocks))
			}
		})
	}
}

// TestIndexBuildMatchesInserts pins that a bulk-built index answers like
// one grown by inserts, at sizes around the block boundaries.
func TestIndexBuildMatchesInserts(t *testing.T) {
	for _, n := range []int{0, 1, blockCap/2 - 1, blockCap / 2, blockCap/2 + 1, blockCap, 5*blockCap + 3} {
		rng := xrand.New(uint64(n) + 5)
		var o oracle
		var sorted []entry
		for len(o) < n {
			if id := rng.Uint64(); !o.has(id) {
				o = slices.Insert(o, o.pos(id), id)
			}
		}
		for _, id := range o {
			sorted = append(sorted, entry{id: id, h: hOf(id)})
		}
		var x index
		x.build(sorted)
		checkIndex(t, &x, o, append([]ID{0, ^ID(0)}, o[:min(n, 32)]...))
	}
}

// naiveFingers is RefreshNode's definition: 64 independent successor
// searches and a successor list walked one strict successor at a time.
func naiveFingers(r *Ring, n *Node) (fingers, succList []*Node) {
	for i := 0; i < 64; i++ {
		fingers = append(fingers, r.successorOf(n.id+ID(1)<<uint(i), false))
	}
	cur := n.id
	for len(succList) < r.cfg.SuccessorListLen && len(succList) < r.Size()-1 {
		s := r.successorOf(cur, true)
		if s == n {
			break
		}
		succList = append(succList, s)
		cur = s.id
	}
	return fingers, succList
}

// TestRefreshNodeMatchesNaiveDefinition checks the one-search finger
// refresh against the definition on rings grown and shrunk by interleaved
// joins and failures, at the sizes where the shortcut's edge cases live:
// a lone node (its own successor), two and three nodes (successor list
// shorter than configured), one block ± 1, and many blocks.
func TestRefreshNodeMatchesNaiveDefinition(t *testing.T) {
	sizes := []int{1, 2, 3, blockCap - 1, blockCap, blockCap + 1, 10000}
	for _, size := range sizes {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			rng := xrand.New(uint64(size) * 13)
			r := NewRing(Config{AutoRefreshEvery: -1})
			var alive []*Node
			for r.Size() < size {
				n, err := r.JoinRandom(rng)
				if err != nil {
					t.Fatal(err)
				}
				alive = append(alive, n)
				// One failure per three joins, never the last node.
				if r.Size() > 1 && rng.Intn(3) == 0 {
					j := rng.Intn(len(alive))
					if err := r.Fail(alive[j]); err != nil {
						t.Fatal(err)
					}
					alive[j] = alive[len(alive)-1]
					alive = alive[:len(alive)-1]
				}
			}
			check := alive
			if len(check) > 300 {
				check = check[:300]
			}
			checkRefresh(t, r, check)
		})
	}
	// Gaps of 1 (no finger is "near"), of 2⁶³ (all but one are), and ids at
	// both ends of the space.
	t.Run("edges", func(t *testing.T) {
		r := NewRing(Config{AutoRefreshEvery: -1})
		var nodes []*Node
		for _, id := range []ID{0, 1, 2, 1 << 63, 1<<63 + 1, ^ID(0) - 1, ^ID(0)} {
			n, err := r.Join(id)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
			checkRefresh(t, r, nodes)
		}
	})
}

func checkRefresh(t *testing.T, r *Ring, nodes []*Node) {
	t.Helper()
	for _, n := range nodes {
		wantF, wantS := naiveFingers(r, n)
		r.RefreshNode(n)
		if !slices.Equal(r.fingerTable(n), wantF) {
			t.Fatalf("node %d: fingers differ from 64 independent searches", n.id)
		}
		for j := 1; j < len(n.fingers); j++ {
			if n.fingers[j] == n.fingers[j-1] {
				t.Fatalf("node %d: runs %d and %d hold the same finger", n.id, j-1, j)
			}
		}
		if got := r.successors(n); !slices.Equal(got, wantS) {
			t.Fatalf("node %d: successor list %d long, definition gives %d", n.id, len(got), len(wantS))
		}
	}
}

var benchSink *Node

// BenchmarkRingChurn times one membership change — alternately a join at
// a random id and the abrupt failure of a random node — on a populated
// ring. The index's share is set by the block size, not the ring size;
// what still grows from 10⁴ to 10⁶ nodes (~3.5×, EXPERIMENTS.md) is the
// cache misses of the join's ~log₂N finger searches.
func BenchmarkRingChurn(b *testing.B) {
	for _, size := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			rng := xrand.New(9)
			r := NewRing(Config{})
			joined, err := r.JoinBulk(size, rng)
			if err != nil {
				b.Fatal(err)
			}
			// Room for every join, and a collected heap: time the changes,
			// not slice growth or the marking of the set-up's garbage.
			nodes := append(make([]*Node, 0, size+b.N), joined...)
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					n, err := r.JoinRandom(rng)
					if err != nil {
						b.Fatal(err)
					}
					nodes = append(nodes, n)
					benchSink = n
					continue
				}
				j := rng.Intn(len(nodes))
				if err := r.Fail(nodes[j]); err != nil {
					b.Fatal(err)
				}
				nodes[j] = nodes[len(nodes)-1]
				nodes = nodes[:len(nodes)-1]
			}
		})
	}
}

// BenchmarkJoinBulk times populating an empty ring of 10⁵ nodes: id
// draws, one sort, the index build and one refresh of every node's
// routing state.
func BenchmarkJoinBulk(b *testing.B) {
	const size = 100_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRing(Config{}).JoinBulk(size, xrand.New(9)); err != nil {
			b.Fatal(err)
		}
	}
}
