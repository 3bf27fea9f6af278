// Package chord implements a Chord distributed hash table (Stoica et al.,
// SIGCOMM 2001) — the P2P lookup service the QSA paper invokes to discover
// candidate service instances ("the P2P lookup protocol, such as Chord or
// CAN, is invoked to retrieve the locations and QoS specifications of all
// candidate service instances", §3.2).
//
// This is an in-process simulation of the protocol: nodes are objects, a
// "hop" is one application-level forwarding step. Routing is faithful —
// each node forwards using only its own finger table and successor list,
// so lookup paths and hop counts are those of real Chord (O(log N)).
// What is simulated away is the asynchronous stabilization gossip: instead
// of stabilize()/fix_fingers() message exchanges, RefreshNode recomputes a
// node's fingers from ring ground truth. Between refreshes fingers go stale
// exactly as in a real deployment, and routing must survive that (dead
// fingers are skipped, successor lists provide the fallback path).
package chord

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/xrand"
)

// ID is a point on the 2⁶⁴ identifier ring.
type ID = uint64

// HashString maps an arbitrary string (service name, peer address) onto
// the ring with FNV-1a, the consistent-hashing step of Chord.
func HashString(s string) ID {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// between reports whether x lies in the half-open ring interval (a, b],
// handling wraparound. When a == b the interval is the whole ring.
func between(a, b, x ID) bool {
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b
}

// Config parameterizes a Ring.
type Config struct {
	// SuccessorListLen is the length of each node's successor list (Chord's
	// r parameter); it bounds tolerance to simultaneous failures. Default 8.
	SuccessorListLen int
	// Replicas is the number of consecutive successors each data item is
	// stored on (including the owner). Default 3.
	Replicas int
	// MaxHops bounds a single lookup; beyond it the lookup falls back to a
	// linear successor walk. Default 4 * 64.
	MaxHops int
	// AutoRefreshEvery refreshes a node's routing state after it has
	// forwarded this many lookups — the traffic-proportional stand-in for
	// Chord's periodic stabilization, bounding finger staleness under
	// load. 0 selects the default 32; negative disables.
	AutoRefreshEvery int
}

func (c *Config) fillDefaults() {
	if c.SuccessorListLen == 0 {
		c.SuccessorListLen = 8
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.MaxHops == 0 {
		c.MaxHops = 4 * 64
	}
	if c.AutoRefreshEvery == 0 {
		c.AutoRefreshEvery = 32
	}
}

// Node is one Chord participant.
type Node struct {
	id    ID
	label string
	alive bool

	fingers  []*Node // fingers[i] ≈ successor(id + 2^i); may be stale or dead
	succList []*Node // first SuccessorListLen successors; may be stale
	visits   int     // lookups forwarded since the last refresh

	store map[ID]map[string]any // key -> itemID -> value
}

// ID returns the node's ring identifier.
func (n *Node) ID() ID { return n.id }

// Label returns the external binding supplied at join (e.g. a peer address).
func (n *Node) Label() string { return n.label }

// Alive reports whether the node is still part of the ring.
func (n *Node) Alive() bool { return n.alive }

// Items returns the number of (key, item) pairs stored on this node.
func (n *Node) Items() int {
	c := 0
	for _, m := range n.store {
		c += len(m)
	}
	return c
}

// Ring is the collection of Chord nodes plus the ground-truth membership
// used by RefreshNode (the stand-in for the stabilization protocol).
type Ring struct {
	cfg     Config
	idx     index        // alive nodes ordered by id
	byID    map[ID]*Node // alive nodes
	stats   Stats
	targets []*Node // replicaTargets' result buffer, cap cfg.Replicas
}

// Stats accumulates ring-wide routing statistics.
type Stats struct {
	Lookups   uint64
	TotalHops uint64
	Fallbacks uint64 // lookups that exhausted MaxHops and walked successors
}

// NewRing returns an empty ring.
func NewRing(cfg Config) *Ring {
	cfg.fillDefaults()
	return &Ring{cfg: cfg, byID: make(map[ID]*Node), targets: make([]*Node, 0, max(cfg.Replicas, 1))}
}

// Size returns the number of alive nodes.
func (r *Ring) Size() int { return r.idx.size }

// Stats returns routing statistics accumulated so far.
func (r *Ring) Stats() Stats { return r.stats }

// Join adds a node with the given id, transfers the keys it now owns from
// its successor, and refreshes its routing state. It fails on duplicate ids.
func (r *Ring) Join(label string, id ID) (*Node, error) {
	if _, dup := r.byID[id]; dup {
		return nil, fmt.Errorf("chord: id %d already on the ring", id)
	}
	n := &Node{id: id, label: label, alive: true, store: make(map[ID]map[string]any)}
	r.idx.insert(id, n)
	r.byID[id] = n

	// Take over keys in (pred, n] from the successor.
	if r.idx.size > 1 {
		succ := r.successorOf(id, true)
		pred := r.predecessorOf(id)
		for key, items := range succ.store {
			if between(pred.id, n.id, key) {
				n.store[key] = items
				delete(succ.store, key)
			}
		}
	}
	r.RefreshNode(n)
	return n, nil
}

// JoinRandom joins a node at a fresh pseudo-random id drawn from rng.
func (r *Ring) JoinRandom(label string, rng *xrand.Source) (*Node, error) {
	for tries := 0; tries < 64; tries++ {
		id := rng.Uint64()
		if _, dup := r.byID[id]; dup {
			continue
		}
		return r.Join(label, id)
	}
	return nil, fmt.Errorf("chord: could not find a free id after 64 tries")
}

// JoinBulk joins one node per label at fresh pseudo-random ids, sorting
// the ring once and refreshing all routing state once at the end,
// instead of a per-join insert + refresh. It draws ids from rng in
// exactly the order sequential JoinRandom calls would, so a run that
// populates the ring either way sees identical node placement.
//
// JoinBulk is for initial population only: it must run before any data
// is stored on the ring (there is nothing to transfer ownership of) and
// it returns an error if any existing node already holds items.
func (r *Ring) JoinBulk(labels []string, rng *xrand.Source) ([]*Node, error) {
	all := r.idx.appendAll(make([]entry, 0, r.idx.size+len(labels)))
	for _, e := range all {
		if len(e.node.store) > 0 {
			return nil, fmt.Errorf("chord: JoinBulk on a ring holding data (node %d has %d keys)", e.id, len(e.node.store))
		}
	}
	out := make([]*Node, 0, len(labels))
	for _, label := range labels {
		id, ok := ID(0), false
		for tries := 0; tries < 64; tries++ {
			id = rng.Uint64()
			if _, dup := r.byID[id]; !dup {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("chord: could not find a free id after 64 tries")
		}
		n := &Node{id: id, label: label, alive: true, store: make(map[ID]map[string]any)}
		all = append(all, entry{id: id, node: n})
		r.byID[id] = n
		out = append(out, n)
	}
	slices.SortFunc(all, func(a, b entry) int { return cmp.Compare(a.id, b.id) })
	r.idx.build(all)
	r.refreshAll(all)
	return out, nil
}

// Leave removes the node gracefully: its keys are handed to its successor
// before departure.
func (r *Ring) Leave(n *Node) error {
	if !n.alive {
		return fmt.Errorf("chord: node %d already gone", n.id)
	}
	if r.idx.size > 1 {
		succ := r.successorOf(n.id, true)
		for key, items := range n.store {
			dst, ok := succ.store[key]
			if !ok {
				dst = make(map[string]any, len(items))
				succ.store[key] = dst
			}
			for itemID, v := range items {
				dst[itemID] = v
			}
		}
	}
	r.remove(n)
	return nil
}

// Fail removes the node abruptly: its keys are lost (replicas on successors
// survive), and other nodes' fingers pointing at it go stale until their
// next refresh — the churn behaviour the QSA paper studies.
func (r *Ring) Fail(n *Node) error {
	if !n.alive {
		return fmt.Errorf("chord: node %d already gone", n.id)
	}
	r.remove(n)
	return nil
}

func (r *Ring) remove(n *Node) {
	n.alive = false
	r.idx.remove(n.id)
	delete(r.byID, n.id)
	n.store = nil // a dead node is never written to again
}

// successorOf returns the first alive node with id >= target (wrapping).
// When excludeSelf is true a node exactly at target is skipped.
func (r *Ring) successorOf(target ID, excludeSelf bool) *Node {
	if excludeSelf {
		return r.idx.after(target)
	}
	return r.idx.ceil(target)
}

// predecessorOf returns the last alive node with id < target (wrapping).
func (r *Ring) predecessorOf(target ID) *Node { return r.idx.before(target) }

// Owner returns the ground-truth owner of key: successor(key).
func (r *Ring) Owner(key ID) *Node { return r.successorOf(key, false) }

// RefreshNode recomputes n's finger table and successor list from ring
// ground truth — the simulation stand-in for Chord's periodic
// stabilize/fix_fingers exchanges. Call it periodically; between calls the
// node routes with whatever (possibly stale) state it has.
//
// Finger i is successor(n.id + 2^i), and a finger f found at level i is
// also the answer at every higher level whose start still lies in (n, f]:
// no alive node sits between those starts and f. With N nodes that leaves
// ~log₂N searches instead of 64 — the low ~64−log₂N levels all resolve to
// successor(n) in one.
func (r *Ring) RefreshNode(n *Node) {
	if !n.alive {
		return
	}
	if n.fingers == nil {
		n.fingers = make([]*Node, 64)
	}
	for i := 0; i < 64; {
		f := r.idx.ceil(n.id + ID(1)<<uint(i)) // wraps mod 2^64 naturally
		// 2^j <= f.id − n.id exactly for j < reach; a search that comes
		// all the way round to n covers the rest of the ring.
		reach := 64
		if f != n {
			reach = bits.Len64(f.id - n.id)
		}
		for ; i < reach; i++ {
			n.fingers[i] = f
		}
	}
	n.succList = r.idx.appendAfter(n.succList[:0], n.id, min(r.cfg.SuccessorListLen, r.idx.size-1))
}

// RefreshAll refreshes every alive node. It computes exactly the state
// per-node RefreshNode calls would (the equivalence is pinned by a
// test), but in O(64·N) instead of O(64·N·log N): for each finger level
// the targets id+2^i are monotone in ring order except for one wrap, so
// a single successor pointer sweeps the sorted ring once per level.
func (r *Ring) RefreshAll() {
	r.refreshAll(r.idx.appendAll(make([]entry, 0, r.idx.size)))
}

// refreshAll is RefreshAll over the index's entries laid out flat.
func (r *Ring) refreshAll(ring []entry) {
	n := len(ring)
	for _, e := range ring {
		if e.node.fingers == nil {
			e.node.fingers = make([]*Node, 64)
		}
	}
	for i := 0; i < 64; i++ {
		off := ID(1) << uint(i)
		// Targets wrap past 2⁶⁴ exactly when id > ^off; those nodes have
		// the smallest targets and are swept first.
		wrapFrom := sort.Search(n, func(j int) bool { return ring[j].id > ^off })
		p := 0
		assign := func(j int) {
			start := ring[j].id + off // wraps mod 2^64 naturally
			for p < n && ring[p].id < start {
				p++
			}
			if p == n {
				ring[j].node.fingers[i] = ring[0].node
			} else {
				ring[j].node.fingers[i] = ring[p].node
			}
		}
		for j := wrapFrom; j < n; j++ {
			assign(j)
		}
		for j := 0; j < wrapFrom; j++ {
			assign(j)
		}
	}
	k := r.cfg.SuccessorListLen
	if k > n-1 {
		k = n - 1
	}
	for j, e := range ring {
		nd := e.node
		nd.succList = nd.succList[:0]
		for t := 1; t <= k; t++ {
			nd.succList = append(nd.succList, ring[(j+t)%n].node)
		}
	}
}

// firstAliveSuccessor returns the first alive entry of n's successor list,
// or nil when the whole list is dead/stale.
func (n *Node) firstAliveSuccessor() *Node {
	for _, s := range n.succList {
		if s.alive {
			return s
		}
	}
	return nil
}

// closestPrecedingFinger returns the alive finger of n that most closely
// precedes key, or nil when no finger makes progress.
func (n *Node) closestPrecedingFinger(key ID) *Node {
	for i := len(n.fingers) - 1; i >= 0; i-- {
		f := n.fingers[i]
		if f == nil || !f.alive || f == n {
			continue
		}
		if between(n.id, key, f.id) && f.id != key {
			// f strictly precedes key going around from n.
			if f.id != n.id {
				return f
			}
		}
	}
	return nil
}

// Lookup routes from start to the owner of key using finger tables,
// returning the owner and the number of application-level hops taken.
// It fails only when the ring is empty or start is dead.
func (r *Ring) Lookup(start *Node, key ID) (*Node, int, error) {
	if r.idx.size == 0 {
		return nil, 0, fmt.Errorf("chord: empty ring")
	}
	if start == nil || !start.alive {
		return nil, 0, fmt.Errorf("chord: lookup from dead node")
	}
	cur := start
	hops := 0
	for hops < r.cfg.MaxHops {
		r.touch(cur)
		succ := cur.firstAliveSuccessor()
		if succ == nil {
			// Isolated routing state (e.g. single node or fully stale
			// list): consult ground truth as last resort — equivalent to a
			// node falling back to its bootstrap contact.
			succ = r.successorOf(cur.id, true)
		}
		if succ == nil || succ == cur { // single-node ring
			r.finish(hops)
			return cur, hops, nil
		}
		if between(cur.id, succ.id, key) {
			// cur believes succ owns the key, but cur's successor pointer
			// may be stale (a node joined in between). As in Chord's
			// find_successor, the candidate confirms ownership and the
			// query walks forward until the true owner is reached.
			hops++
			for owner := r.Owner(key); succ != owner; {
				succ = r.successorOf(succ.id, true)
				hops++
				if hops >= r.cfg.MaxHops+r.idx.size {
					return nil, hops, fmt.Errorf("chord: owner walk for %d diverged", key)
				}
			}
			r.finish(hops)
			return succ, hops, nil
		}
		next := cur.closestPrecedingFinger(key)
		if next == nil || next == cur {
			next = succ
		}
		cur = next
		hops++
	}
	// Fingers too stale to converge: linear successor walk from cur.
	r.stats.Fallbacks++
	for walked := 0; walked <= r.idx.size; walked++ {
		succ := r.successorOf(cur.id, true)
		hops++
		if between(cur.id, succ.id, key) {
			r.finish(hops)
			return succ, hops, nil
		}
		cur = succ
	}
	return nil, hops, fmt.Errorf("chord: lookup for %d failed to converge", key)
}

func (r *Ring) finish(hops int) {
	r.stats.Lookups++
	r.stats.TotalHops += uint64(hops)
}

// touch counts a forwarded lookup and refreshes the node's routing state
// when it has carried enough traffic since the last refresh.
func (r *Ring) touch(n *Node) {
	if r.cfg.AutoRefreshEvery <= 0 {
		return
	}
	n.visits++
	if n.visits >= r.cfg.AutoRefreshEvery {
		r.RefreshNode(n)
		n.visits = 0
	}
}

// replicaTargets returns the owner and up to Replicas−1 distinct alive
// successors of owner. The result is valid until the next call.
func (r *Ring) replicaTargets(owner *Node) []*Node {
	r.targets = append(r.targets[:0], owner)
	r.targets = r.idx.appendAfter(r.targets, owner.id, min(r.cfg.Replicas, r.idx.size)-1)
	return r.targets
}

// Put routes from start to the owner of key and stores (itemID → value)
// there and on Replicas−1 successors. It returns the routing hop count.
func (r *Ring) Put(start *Node, key ID, itemID string, value any) (int, error) {
	owner, hops, err := r.Lookup(start, key)
	if err != nil {
		return hops, err
	}
	for _, t := range r.replicaTargets(owner) {
		m, ok := t.store[key]
		if !ok {
			m = make(map[string]any)
			t.store[key] = m
		}
		m[itemID] = value
	}
	return hops, nil
}

// Get routes from start to the owner of key and returns the stored items.
// If the owner has none (it may have just joined and not yet received
// re-replication), the replicas are consulted.
func (r *Ring) Get(start *Node, key ID) (map[string]any, int, error) {
	owner, hops, err := r.Lookup(start, key)
	if err != nil {
		return nil, hops, err
	}
	for i, t := range r.replicaTargets(owner) {
		if i > 0 {
			hops++ // consulting a replica costs a hop; the owner is free
		}
		if m, ok := t.store[key]; ok && len(m) > 0 {
			out := make(map[string]any, len(m))
			for k, v := range m {
				out[k] = v
			}
			return out, hops, nil
		}
	}
	return map[string]any{}, hops, nil
}

// Update routes from start to the owner of key and atomically applies fn
// to the current value stored under itemID (nil when absent); the returned
// value replaces it on the owner and its replicas. Returning nil deletes
// the item. It returns the routing hop count.
func (r *Ring) Update(start *Node, key ID, itemID string, fn func(prev any) any) (int, error) {
	owner, hops, err := r.Lookup(start, key)
	if err != nil {
		return hops, err
	}
	var prev any
	if m, ok := owner.store[key]; ok {
		prev = m[itemID]
	}
	next := fn(prev)
	for _, t := range r.replicaTargets(owner) {
		m, ok := t.store[key]
		if next == nil {
			if ok {
				delete(m, itemID)
				if len(m) == 0 {
					delete(t.store, key)
				}
			}
			continue
		}
		if !ok {
			m = make(map[string]any)
			t.store[key] = m
		}
		m[itemID] = next
	}
	return hops, nil
}

// Remove deletes itemID under key from the owner and its replicas.
func (r *Ring) Remove(start *Node, key ID, itemID string) (int, error) {
	owner, hops, err := r.Lookup(start, key)
	if err != nil {
		return hops, err
	}
	for _, t := range r.replicaTargets(owner) {
		if m, ok := t.store[key]; ok {
			delete(m, itemID)
			if len(m) == 0 {
				delete(t.store, key)
			}
		}
	}
	return hops, nil
}

// MeanHops returns the average hops per completed lookup.
func (s Stats) MeanHops() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.Lookups)
}

// Log2Size returns ceil(log2(n)) for hop-bound assertions in tests.
func Log2Size(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
