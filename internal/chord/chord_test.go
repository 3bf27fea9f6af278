package chord

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func buildRing(t *testing.T, seed uint64, n int) (*Ring, []*Node) {
	t.Helper()
	r := NewRing(Config{})
	rng := xrand.New(seed)
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		nd, err := r.JoinRandom(rng)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	r.RefreshAll()
	return r, nodes
}

// put stores value under (key, itemID) by routing from start.
func put(r *Ring, start *Node, key ID, itemID string, value any) (int, error) {
	_, hops, err := r.Update(start, key, itemID, func(any) any { return value })
	return hops, err
}

// del deletes (key, itemID) by routing from start.
func del(r *Ring, start *Node, key ID, itemID string) (int, error) {
	_, hops, err := r.Update(start, key, itemID, func(any) any { return nil })
	return hops, err
}

func TestBetween(t *testing.T) {
	cases := []struct {
		a, b, x ID
		want    bool
	}{
		{10, 20, 15, true},
		{10, 20, 20, true},  // inclusive right
		{10, 20, 10, false}, // exclusive left
		{10, 20, 25, false},
		{20, 10, 25, true}, // wraparound
		{20, 10, 5, true},
		{20, 10, 15, false},
		{7, 7, 99, true}, // whole ring
	}
	for _, c := range cases {
		if got := between(c.a, c.b, c.x); got != c.want {
			t.Errorf("between(%d,%d,%d) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("video-server") != HashString("video-server") {
		t.Fatal("hash must be deterministic")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("distinct names should hash apart")
	}
}

func TestLookupFindsGroundTruthOwner(t *testing.T) {
	r, nodes := buildRing(t, 1, 128)
	rng := xrand.New(9)
	for i := 0; i < 500; i++ {
		key := rng.Uint64()
		start := nodes[rng.Intn(len(nodes))]
		got, _, err := r.Lookup(start, key)
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Owner(key); got != want {
			t.Fatalf("Lookup(%d) = node %d, ground truth %d", key, got.id, want.id)
		}
	}
}

func TestLookupHopsLogarithmic(t *testing.T) {
	r, nodes := buildRing(t, 2, 1024)
	rng := xrand.New(5)
	var total int
	const lookups = 2000
	for i := 0; i < lookups; i++ {
		_, hops, err := r.Lookup(nodes[rng.Intn(len(nodes))], rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		total += hops
	}
	mean := float64(total) / lookups
	// Chord's expected path length is ~ (1/2) log2 N = 5 for N=1024; allow
	// generous slack but catch linear behaviour.
	if mean > 2*float64(Log2Size(1024)) {
		t.Fatalf("mean hops = %v, not logarithmic for N=1024", mean)
	}
	if r.Stats().Lookups != lookups {
		t.Fatalf("stats recorded %d lookups", r.Stats().Lookups)
	}
}

func TestSingleNodeRing(t *testing.T) {
	r := NewRing(Config{})
	n, err := r.Join(42)
	if err != nil {
		t.Fatal(err)
	}
	got, hops, err := r.Lookup(n, 7)
	if err != nil || got != n {
		t.Fatalf("single-node lookup = %v, %v", got, err)
	}
	if hops != 0 {
		t.Fatalf("single-node lookup hops = %d", hops)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	r := NewRing(Config{})
	if _, err := r.Join(7); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Join(7); err == nil {
		t.Fatal("duplicate id must be rejected")
	}
}

func TestPutGetRemove(t *testing.T) {
	r, nodes := buildRing(t, 3, 64)
	key := HashString("video-server")
	if _, err := put(r, nodes[0], key, "inst-1", "spec-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := put(r, nodes[10], key, "inst-2", "spec-2"); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Get(nodes[33], key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["inst-1"] != "spec-1" || got["inst-2"] != "spec-2" {
		t.Fatalf("Get = %v", got)
	}
	if _, err := del(r, nodes[5], key, "inst-1"); err != nil {
		t.Fatal(err)
	}
	got, _, _ = r.Get(nodes[60], key)
	if len(got) != 1 {
		t.Fatalf("after delete, Get = %v", got)
	}
}

// TestUpdateAtRefusesNonOwner: a write addressed straight to a node lands
// only while that node owns the key; a joiner that takes the key over
// makes the old owner refuse it.
func TestUpdateAtRefusesNonOwner(t *testing.T) {
	r := NewRing(Config{Replicas: 1})
	if err := r.UpdateAt(100, 50, "x", func(any) any { return 0 }); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("write on an empty ring = %v, want ErrNotOwner", err)
	}
	a, _ := r.Join(100)
	set := func(v any) func(any) any { return func(any) any { return v } }
	if err := r.UpdateAt(a.id, 50, "x", set(1)); err != nil {
		t.Fatal(err)
	}
	b, _ := r.Join(60)
	if err := r.UpdateAt(a.id, 50, "x", set(2)); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("write at the pre-join owner = %v, want ErrNotOwner", err)
	}
	if err := r.UpdateAt(b.id, 50, "x", set(3)); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := r.Get(a, 50); got["x"] != 3 {
		t.Fatalf("Get = %v, want the write at the new owner", got)
	}
}

func TestKeysMoveOnJoin(t *testing.T) {
	r := NewRing(Config{Replicas: 1})
	a, _ := r.Join(100)
	r.RefreshAll()
	// Key 50 is owned by a (only node).
	if _, err := put(r, a, 50, "x", 1); err != nil {
		t.Fatal(err)
	}
	// A node at 60 takes over ownership of key 50.
	b, _ := r.Join(60)
	r.RefreshAll()
	if owner := r.Owner(50); owner != b {
		t.Fatalf("owner of 50 = %d, want 60", owner.id)
	}
	got, _, err := r.Get(a, 50)
	if err != nil || got["x"] != 1 {
		t.Fatalf("item did not move with ownership: %v, %v", got, err)
	}
	if _, ok := a.store[50]; ok {
		t.Fatal("old owner kept the key after handoff")
	}
}

func TestGracefulLeaveKeepsData(t *testing.T) {
	r, nodes := buildRing(t, 4, 32)
	key := HashString("translator")
	put(r, nodes[0], key, "i", "v")
	owner := r.Owner(key)
	if err := r.Leave(owner); err != nil {
		t.Fatal(err)
	}
	r.RefreshAll()
	var start *Node
	for _, n := range nodes {
		if n.Alive() {
			start = n
			break
		}
	}
	got, _, err := r.Get(start, key)
	if err != nil || got["i"] != "v" {
		t.Fatalf("data lost on graceful leave: %v, %v", got, err)
	}
	if err := r.Leave(owner); err == nil {
		t.Fatal("double leave must fail")
	}
}

func TestAbruptFailureSurvivedByReplicas(t *testing.T) {
	r, nodes := buildRing(t, 5, 64) // Replicas default 3
	key := HashString("image-enhancer")
	put(r, nodes[0], key, "i", "v")
	owner := r.Owner(key)
	if err := r.Fail(owner); err != nil {
		t.Fatal(err)
	}
	r.RefreshAll()
	var start *Node
	for _, n := range nodes {
		if n.Alive() {
			start = n
			break
		}
	}
	got, _, err := r.Get(start, key)
	if err != nil || got["i"] != "v" {
		t.Fatalf("data lost despite replication: %v, %v", got, err)
	}
}

func TestRoutingSurvivesStaleFingers(t *testing.T) {
	r, nodes := buildRing(t, 6, 256)
	// Kill a quarter of the ring WITHOUT refreshing survivors: their
	// fingers now dangle. Lookups must still converge.
	rng := xrand.New(7)
	killed := 0
	for _, n := range nodes {
		if n.Alive() && rng.Bool(0.25) {
			r.Fail(n)
			killed++
		}
	}
	if killed == 0 {
		t.Skip("nothing killed")
	}
	for i := 0; i < 300; i++ {
		var start *Node
		for start == nil || !start.Alive() {
			start = nodes[rng.Intn(len(nodes))]
		}
		key := rng.Uint64()
		got, _, err := r.Lookup(start, key)
		if err != nil {
			t.Fatalf("lookup with stale fingers failed: %v", err)
		}
		if want := r.Owner(key); got != want {
			t.Fatalf("stale lookup found %d, ground truth %d", got.id, want.id)
		}
	}
}

func TestLookupFromDeadNode(t *testing.T) {
	r, nodes := buildRing(t, 8, 8)
	r.Fail(nodes[0])
	if _, _, err := r.Lookup(nodes[0], 1); err == nil {
		t.Fatal("lookup from dead node must fail")
	}
}

func TestEmptyRingLookup(t *testing.T) {
	r := NewRing(Config{})
	if _, _, err := r.Lookup(nil, 1); err == nil {
		t.Fatal("lookup on empty ring must fail")
	}
}

func TestJoinRandomCollisionRetry(t *testing.T) {
	r := NewRing(Config{})
	rng := xrand.New(42)
	for i := 0; i < 100; i++ {
		if _, err := r.JoinRandom(rng); err != nil {
			t.Fatal(err)
		}
	}
	if r.Size() != 100 {
		t.Fatalf("Size = %d", r.Size())
	}
}

// Property: for any set of node ids, every key's lookup agrees with the
// sorted-ring ground truth owner.
func TestPropertyLookupMatchesOwner(t *testing.T) {
	check := func(rawIDs []uint16, keys []uint64) bool {
		if len(rawIDs) == 0 {
			return true
		}
		r := NewRing(Config{})
		seen := map[ID]bool{}
		var any *Node
		for _, raw := range rawIDs {
			id := ID(raw)
			if seen[id] {
				continue
			}
			seen[id] = true
			n, err := r.Join(id)
			if err != nil {
				return false
			}
			any = n
		}
		r.RefreshAll()
		for _, k := range keys {
			got, _, err := r.Lookup(any, k)
			if err != nil || got != r.Owner(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: items put under arbitrary keys are retrievable from any start
// node, before and after a graceful leave of the owner.
func TestPropertyDataDurability(t *testing.T) {
	check := func(keys []uint64) bool {
		r := NewRing(Config{})
		rng := xrand.New(11)
		var nodes []*Node
		for i := 0; i < 40; i++ {
			n, err := r.JoinRandom(rng)
			if err != nil {
				return false
			}
			nodes = append(nodes, n)
		}
		r.RefreshAll()
		for i, k := range keys {
			if _, err := put(r, nodes[i%len(nodes)], k, fmt.Sprintf("it%d", i), i); err != nil {
				return false
			}
		}
		for i, k := range keys {
			got, _, err := r.Get(nodes[(i*7)%len(nodes)], k)
			if err != nil {
				return false
			}
			if v, ok := got[fmt.Sprintf("it%d", i)]; !ok || v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupCorrectDespiteStaleSuccessors(t *testing.T) {
	// Join 200 nodes one at a time with notify undone and no refresh of
	// the earlier ones: their successor lists miss the late joiners, the
	// situation that made lookups land on the pre-join owner. The
	// final-step owner walk must still deliver the true owner from any
	// start node.
	r := NewRing(Config{AutoRefreshEvery: -1}) // no refresh at all
	rng := xrand.New(33)
	var nodes []*Node
	for i := 0; i < 200; i++ {
		nodes = append(nodes, joinUnnotified(t, r, rng))
	}
	for i := 0; i < 300; i++ {
		key := rng.Uint64()
		start := nodes[rng.Intn(len(nodes))]
		got, _, err := r.Lookup(start, key)
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Owner(key); got != want {
			t.Fatalf("stale-successor lookup found %d, true owner %d", got.id, want.id)
		}
	}
	if r.Stats().OwnerWalkHops == 0 {
		t.Fatal("stale successor lists never sent a lookup down the owner walk")
	}
}

// joinUnnotified joins a node at a random id, then puts every other
// node's successor list back as it was: a join whose notify never
// arrived, the staleness Lookup's owner walk is the backstop for.
func joinUnnotified(t *testing.T, r *Ring, rng *xrand.Source) *Node {
	t.Helper()
	saved := map[*Node][]Handle{}
	for _, n := range ringNodes(r) {
		saved[n] = slices.Clone(n.succ)
	}
	n, err := r.JoinRandom(rng)
	if err != nil {
		t.Fatal(err)
	}
	for m, list := range saved {
		m.succ = list
	}
	return n
}

func TestAutoRefreshBoundsStaleness(t *testing.T) {
	// With traffic-triggered refresh, sustained lookups after heavy churn
	// must repair routing state (fewer hops than the never-refresh ring).
	mk := func(refresh int) float64 {
		r := NewRing(Config{AutoRefreshEvery: refresh})
		rng := xrand.New(44)
		var nodes []*Node
		for i := 0; i < 300; i++ {
			n, _ := r.JoinRandom(rng)
			nodes = append(nodes, n)
		}
		r.RefreshAll()
		for i := 0; i < 150; i++ { // heavy churn, survivors unrefreshed
			for _, n := range nodes {
				if n.Alive() {
					r.Fail(n)
					break
				}
			}
			r.JoinRandom(rng)
		}
		var start *Node
		for _, n := range nodes {
			if n.Alive() {
				start = n
				break
			}
		}
		for i := 0; i < 2000; i++ {
			r.Lookup(start, rng.Uint64())
		}
		return r.Stats().MeanHops()
	}
	withRefresh := mk(8)
	noRefresh := mk(-1)
	if withRefresh >= noRefresh {
		t.Fatalf("auto-refresh did not reduce mean hops: %v vs %v", withRefresh, noRefresh)
	}
}

func TestMeanHopsAndLog2(t *testing.T) {
	var s Stats
	if s.MeanHops() != 0 {
		t.Fatal("MeanHops on zero lookups must be 0")
	}
	s = Stats{Lookups: 4, TotalHops: 10}
	if s.MeanHops() != 2.5 {
		t.Fatalf("MeanHops = %v", s.MeanHops())
	}
	for n, want := range map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 1024: 10, 1025: 11} {
		if got := Log2Size(n); got != want {
			t.Errorf("Log2Size(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestFallbackWalkWhenFingersUseless(t *testing.T) {
	// MaxHops of 1 forces the linear successor-walk fallback; lookups must
	// still return the true owner and count a fallback.
	r := NewRing(Config{MaxHops: 1, AutoRefreshEvery: -1})
	rng := xrand.New(55)
	var nodes []*Node
	for i := 0; i < 64; i++ {
		n, err := r.JoinRandom(rng)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	r.RefreshAll()
	for i := 0; i < 50; i++ {
		key := rng.Uint64()
		got, _, err := r.Lookup(nodes[i%len(nodes)], key)
		if err != nil {
			t.Fatal(err)
		}
		if got != r.Owner(key) {
			t.Fatal("fallback walk returned the wrong owner")
		}
	}
	if r.Stats().Fallbacks == 0 {
		t.Fatal("no fallbacks recorded despite MaxHops=1")
	}
}

func TestOpsFromDeadNodeFail(t *testing.T) {
	r, nodes := buildRing(t, 77, 8)
	r.Fail(nodes[0])
	if _, _, err := r.Get(nodes[0], 1); err == nil {
		t.Fatal("Get from dead node must fail")
	}
	if _, _, err := r.Update(nodes[0], 1, "i", func(any) any { return 1 }); err == nil {
		t.Fatal("Update from dead node must fail")
	}
	if err := r.UpdateAt(nodes[0].id, nodes[0].id, "i", func(any) any { return 1 }); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("UpdateAt a dead node = %v, want ErrNotOwner", err)
	}
	if err := r.Fail(nodes[0]); err == nil {
		t.Fatal("double Fail must error")
	}
}

func TestRemoveLastItemCleansKey(t *testing.T) {
	r, nodes := buildRing(t, 78, 16)
	key := HashString("solo")
	put(r, nodes[0], key, "only", 1)
	del(r, nodes[1], key, "only")
	owner := r.Owner(key)
	if owner.Items() != 0 {
		t.Fatalf("owner still stores %d items", owner.Items())
	}
}

func TestNodeAccessors(t *testing.T) {
	r := NewRing(Config{})
	n, _ := r.Join(77)
	if n.ID() != 77 || !n.Alive() || r.Node(n.Handle()) != n {
		t.Fatalf("accessors: %d %v %d", n.ID(), n.Alive(), n.Handle())
	}
	if n.Items() != 0 {
		t.Fatal("fresh node must store nothing")
	}
	put(r, n, 5, "a", 1)
	if n.Items() != 1 {
		t.Fatalf("Items = %d", n.Items())
	}
}

// ringNodes returns the alive nodes in id order.
func ringNodes(r *Ring) []*Node {
	var out []*Node
	for _, e := range r.idx.appendAll(nil) {
		out = append(out, r.Node(e.h))
	}
	return out
}

// finger expands n's runs: the node finger level i resolves to.
func (r *Ring) finger(n *Node, i int) *Node {
	for _, h := range n.fingers {
		if f := r.Node(h); i < reach(n.id, f.id) {
			return f
		}
	}
	return nil
}

// fingerTable is n's 64 finger levels, expanded from its runs.
func (r *Ring) fingerTable(n *Node) []*Node {
	out := make([]*Node, 64)
	for i := range out {
		out[i] = r.finger(n, i)
	}
	return out
}

// successors is n's successor list as nodes.
func (r *Ring) successors(n *Node) []*Node {
	var out []*Node
	for _, h := range n.succ {
		out = append(out, r.Node(h))
	}
	return out
}

// refreshAllSlow is the pre-optimization RefreshAll: one RefreshNode per
// node. It is the oracle for the linear-time sweep.
func refreshAllSlow(r *Ring) {
	for _, n := range ringNodes(r) {
		r.RefreshNode(n)
	}
}

// TestRefreshAllMatchesPerNodeRefresh pins the metamorphic equivalence:
// the bulk RefreshAll must compute exactly the finger runs and successor
// lists that per-node RefreshNode calls produce, across ring sizes that
// exercise the wrap and short rings, and on ids at both ends of the
// space and packed into one narrow cluster, where the forward search
// from the previous node's fingers has the furthest to go.
func TestRefreshAllMatchesPerNodeRefresh(t *testing.T) {
	var rings []*Ring
	for _, n := range []int{1, 2, 3, 9, 64, 257} {
		rng := xrand.New(uint64(n)*77 + 1)
		r := NewRing(Config{})
		for i := 0; i < n; i++ {
			if _, err := r.JoinRandom(rng); err != nil {
				t.Fatal(err)
			}
		}
		rings = append(rings, r)
	}
	edges := NewRing(Config{})
	for _, id := range []ID{0, 1, 2, 3, 1 << 32, 1<<63 - 1, 1 << 63, 1<<63 + 1, ^ID(0) - 2, ^ID(0) - 1, ^ID(0)} {
		if _, err := edges.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := ID(0); i < 100; i++ {
		if _, err := edges.Join(5<<40 + 7*i); err != nil {
			t.Fatal(err)
		}
	}
	rings = append(rings, edges)
	for _, r := range rings {
		refreshAllSlow(r)
		sorted := ringNodes(r)
		wantRuns := make([][]Handle, len(sorted))
		wantSucc := make([][]Handle, len(sorted))
		for j, nd := range sorted {
			wantRuns[j] = slices.Clone(nd.fingers)
			wantSucc[j] = slices.Clone(nd.succ)
		}
		r.RefreshAll()
		for j, nd := range sorted {
			if !slices.Equal(nd.fingers, wantRuns[j]) {
				t.Fatalf("n=%d node %d: runs %v, per-node refresh %v", len(sorted), j, nd.fingers, wantRuns[j])
			}
			if !slices.Equal(nd.succ, wantSucc[j]) {
				t.Fatalf("n=%d node %d: successor list %v, per-node refresh %v", len(sorted), j, nd.succ, wantSucc[j])
			}
		}
	}
}

// TestJoinBulkMatchesSequentialJoins pins that bulk population draws the
// same ids and ends with the same routing state as sequential JoinRandom
// calls followed by a full refresh.
func TestJoinBulkMatchesSequentialJoins(t *testing.T) {
	const n = 120
	seq := NewRing(Config{})
	rngA := xrand.New(31)
	for range n {
		if _, err := seq.JoinRandom(rngA); err != nil {
			t.Fatal(err)
		}
	}
	seq.RefreshAll()

	bulk := NewRing(Config{})
	rngB := xrand.New(31)
	nodes, err := bulk.JoinBulk(n, rngB)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != n {
		t.Fatalf("JoinBulk returned %d nodes, want %d", len(nodes), n)
	}
	if rngA.Uint64() != rngB.Uint64() {
		t.Fatal("bulk join consumed a different number of rng draws than sequential joins")
	}
	if seq.Size() != bulk.Size() {
		t.Fatalf("sizes differ: %d vs %d", seq.Size(), bulk.Size())
	}
	seqNodes, bulkNodes := ringNodes(seq), ringNodes(bulk)
	for j := range seqNodes {
		a, b := seqNodes[j], bulkNodes[j]
		if a.id != b.id {
			t.Fatalf("node %d: id %d vs %d", j, a.id, b.id)
		}
		for i := range 64 {
			if seq.finger(a, i).id != bulk.finger(b, i).id {
				t.Fatalf("node %d finger %d differs", j, i)
			}
		}
	}
}

// TestJoinBulkRefusesDataBearingRing pins the precondition: bulk join is
// for initial population only.
func TestJoinBulkRefusesDataBearingRing(t *testing.T) {
	rng := xrand.New(3)
	r := NewRing(Config{})
	a, err := r.JoinRandom(rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := put(r, a, 42, "item", "v"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.JoinBulk(1, rng); err == nil {
		t.Fatal("JoinBulk on a data-bearing ring should fail")
	}
}

// joinBulkAllocs is JoinBulk's allocation budget for 10⁴ nodes on a fresh
// ring, at its measured count: the slab chunks, the index's one block
// arena and directory, the two routing arenas and a few buffers. A
// pointer-per-finger layout with a map and a store per node made 70 127.
const joinBulkAllocs = 25

// TestJoinBulkAllocs gates the allocations of a bulk join: a fixed
// handful per slab chunk and per call, none per node.
func TestJoinBulkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const n = 10_000
	got := testing.AllocsPerRun(3, func() {
		if _, err := NewRing(Config{}).JoinBulk(n, xrand.New(1)); err != nil {
			t.Fatal(err)
		}
	})
	if got > joinBulkAllocs {
		t.Fatalf("JoinBulk of %d nodes made %.0f allocations, budget %d", n, got, joinBulkAllocs)
	}
}

// TestRingBytesPerNode bounds the live heap of a bulk-joined ring of 10⁴
// nodes per node: slab slot, finger runs, successor list and index
// entry. A 64-pointer finger table alone took 512 B.
func TestRingBytesPerNode(t *testing.T) {
	const n, budget = 10_000, 320
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := NewRing(Config{})
	if _, err := r.JoinBulk(n, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	runtime.KeepAlive(r)
	t.Logf("%.1f B per node", per)
	if per > budget {
		t.Fatalf("a %d-node ring holds %.1f B per node, budget %d", n, per, budget)
	}
}

// TestCollidingDrawsAreRedrawn: an id drawn for a joiner that is already
// on the ring is drawn again, by JoinRandom and JoinBulk alike, and 64
// collisions in a row are an error.
func TestCollidingDrawsAreRedrawn(t *testing.T) {
	rng := xrand.New(7)
	draws := make([]ID, 65)
	for i := range draws {
		draws[i] = rng.Uint64()
	}
	occupied := func(ids []ID) *Ring {
		r := NewRing(Config{})
		for _, id := range ids {
			if _, err := r.Join(id); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	if n, err := occupied(draws[:1]).JoinRandom(xrand.New(7)); err != nil || n.id != draws[1] {
		t.Fatalf("JoinRandom past one collision = %v, %v; want id %d", n, err, draws[1])
	}
	if ns, err := occupied(draws[:1]).JoinBulk(2, xrand.New(7)); err != nil || ns[0].id != draws[1] || ns[1].id != draws[2] {
		t.Fatalf("JoinBulk past one collision = %v, %v; want ids %d, %d", ns, err, draws[1], draws[2])
	}
	full := occupied(draws[:64])
	if _, err := full.JoinRandom(xrand.New(7)); err == nil {
		t.Fatal("JoinRandom after 64 collisions must fail")
	}
	if _, err := full.JoinBulk(1, xrand.New(7)); err == nil {
		t.Fatal("JoinBulk after 64 collisions must fail")
	}
}

// TestRingEdges covers the paths a populated, converged ring never takes:
// refreshing an empty ring or a dead node, reading an absent key,
// handing data to a successor that stores nothing yet, and a read the
// owner cannot serve that falls to a replica.
func TestRingEdges(t *testing.T) {
	r := NewRing(Config{})
	r.RefreshAll()
	if r.Size() != 0 {
		t.Fatal("refreshing an empty ring changed it")
	}

	r = NewRing(Config{Replicas: 1})
	a, _ := r.Join(100)
	b, _ := r.Join(200)
	if got, hops, err := r.Get(b, 50); err != nil || len(got) != 0 {
		t.Fatalf("Get of an absent key = %v, %d, %v", got, hops, err)
	}
	if _, err := put(r, b, 50, "x", 1); err != nil {
		t.Fatal(err)
	}
	if b.store != nil {
		t.Fatal("a node that was never written to holds a store")
	}
	if err := r.Leave(a); err != nil {
		t.Fatal(err)
	}
	if got, _, err := r.Get(b, 50); err != nil || got["x"] != 1 {
		t.Fatalf("item did not move to the successor on leave: %v, %v", got, err)
	}
	r.RefreshNode(a)
	if a.fingers != nil || a.succ != nil || a.store != nil {
		t.Fatal("a departed node keeps routing state or data")
	}

	r, nodes := buildRing(t, 12, 16)
	key := HashString("replicated")
	put(r, nodes[0], key, "i", "v")
	owner := r.Owner(key)
	delete(owner.store, key)
	_, ownerHops, _ := r.Lookup(nodes[1], key)
	got, hops, err := r.Get(nodes[1], key)
	if err != nil || got["i"] != "v" || hops != ownerHops+1 {
		t.Fatalf("Get past an owner without the key = %v, %d hops (owner at %d), %v", got, hops, ownerHops, err)
	}
}
