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
// node's fingers from ring ground truth, and a join runs notify plus one
// stabilize round at the joiner's predecessors. Between refreshes fingers
// go stale exactly as in a real deployment, and routing must survive that
// (dead fingers are skipped, successor lists provide the fallback path).
package chord

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"

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

// Handle names a node in its ring's slab. Handles are issued in join order
// and never reused, so a finger or successor entry written for a node keeps
// naming that node after it has left the ring, as a stale pointer would.
type Handle int32

// noHandle is the handle of no node.
const noHandle Handle = -1

// slabBits sets the slab's chunk size, 2^slabBits nodes. Chunks are never
// reallocated, so a *Node stays valid as the ring grows.
const (
	slabBits  = 10
	slabChunk = 1 << slabBits
)

// Node is one Chord participant. It lives in its ring's slab.
type Node struct {
	id ID

	// fingers is the finger table as runs, lowest levels first. Finger i is
	// successor(id + 2^i), and a refresh gives one finger a contiguous
	// range of levels: run r covers the levels from reach(id, run r−1)
	// (0 for the first run) up to reach(id, run r). About log₂N runs stand
	// for the 64 levels. They may be stale or dead.
	fingers []Handle
	succ    []Handle              // first SuccessorListLen successors; may be stale
	store   map[ID]map[string]any // key -> itemID -> value; nil until the first write

	h      Handle
	visits int32 // lookups forwarded since the last refresh
	alive  bool
}

// ID returns the node's ring identifier.
func (n *Node) ID() ID { return n.id }

// Handle returns the node's slab handle; Ring.Node maps it back.
func (n *Node) Handle() Handle { return n.h }

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

// reach is the level just past the run of a finger at id f of the node at
// id n: 2^i <= f − n exactly for i < reach, and a finger that is the node
// itself (the search came all the way round) covers every level.
func reach(n, f ID) int {
	if f == n {
		return 64
	}
	return bits.Len64(f - n)
}

// Ring is the collection of Chord nodes plus the ground-truth membership
// used by RefreshNode (the stand-in for the stabilization protocol).
type Ring struct {
	cfg     Config
	idx     index    // alive nodes ordered by id
	slab    [][]Node // every node ever joined, chunked; a handle is a position
	stats   Stats
	targets []Handle // replicaTargets' result buffer, cap cfg.Replicas
	preds   []Handle // notify's buffer of the joiner's predecessors
}

// Stats accumulates ring-wide routing statistics. TotalHops splits by
// cause: OwnerWalkHops are the hops Lookup's owner walk pays past a
// successor pointer that missed a joiner; when Fallbacks is 0 the rest
// are finger and successor hops.
type Stats struct {
	Lookups   uint64
	TotalHops uint64
	Fallbacks uint64 // lookups that exhausted MaxHops and walked successors

	OwnerWalkHops   uint64
	DeadFingerSkips uint64 // dead fingers passed over that would have made progress
}

// NewRing returns an empty ring.
func NewRing(cfg Config) *Ring {
	cfg.fillDefaults()
	return &Ring{cfg: cfg, targets: make([]Handle, 0, max(cfg.Replicas, 1))}
}

// Size returns the number of alive nodes.
func (r *Ring) Size() int { return r.idx.size }

// Stats returns routing statistics accumulated so far.
func (r *Ring) Stats() Stats { return r.stats }

// Node returns the node a handle names, alive or not.
func (r *Ring) Node(h Handle) *Node { return &r.slab[h>>slabBits][h&(slabChunk-1)] }

// alloc places a new alive node with the given id in the slab.
func (r *Ring) alloc(id ID) *Node {
	if len(r.slab) == 0 || len(r.slab[len(r.slab)-1]) == slabChunk {
		r.slab = append(r.slab, make([]Node, 0, slabChunk))
	}
	last := &r.slab[len(r.slab)-1]
	h := Handle((len(r.slab)-1)<<slabBits + len(*last))
	*last = append(*last, Node{id: id, h: h, alive: true})
	return &(*last)[len(*last)-1]
}

// Join adds a node with the given id, transfers the keys it now owns from
// its successor, refreshes its routing state and notifies its
// predecessors. It fails on duplicate ids.
func (r *Ring) Join(id ID) (*Node, error) {
	if r.idx.has(id) {
		return nil, fmt.Errorf("chord: id %d already on the ring", id)
	}
	n := r.alloc(id)
	r.idx.insert(id, n.h)

	// Take over keys in (pred, n] from the successor.
	if r.idx.size > 1 {
		succ := r.Node(r.idx.after(id).h)
		pred := r.idx.before(id)
		for key, items := range succ.store {
			if between(pred.id, n.id, key) {
				if n.store == nil {
					n.store = make(map[ID]map[string]any)
				}
				n.store[key] = items
				delete(succ.store, key)
			}
		}
	}
	r.RefreshNode(n)
	r.notify(n)
	return n, nil
}

// notify is Chord's notify from a joiner followed by one stabilize round
// at each of its r predecessors, nearest first: each adopts its successor
// and that successor's list, cut to r. The joiner's list is fresh from
// RefreshNode, so every predecessor ends with the list converged
// stabilization would give it, in one index search and r steps.
func (r *Ring) notify(n *Node) {
	k := min(r.cfg.SuccessorListLen, r.idx.size-1)
	r.preds = r.idx.appendBefore(r.preds[:0], n.id, k)
	next := n
	for _, h := range r.preds {
		p := r.Node(h)
		p.succ = append(append(p.succ[:0], next.h), next.succ[:k-1]...)
		next = p
	}
}

// JoinRandom joins a node at a fresh pseudo-random id drawn from rng.
func (r *Ring) JoinRandom(rng *xrand.Source) (*Node, error) {
	for tries := 0; tries < 64; tries++ {
		id := rng.Uint64()
		if r.idx.has(id) {
			continue
		}
		return r.Join(id)
	}
	return nil, fmt.Errorf("chord: could not find a free id after 64 tries")
}

// JoinBulk joins n nodes at fresh pseudo-random ids, sorting the ring once
// and refreshing all routing state once at the end, instead of a per-join
// insert + refresh. It draws ids from rng in exactly the order sequential
// JoinRandom calls would, so a run that populates the ring either way
// sees identical node placement. The ring it leaves is converged: a
// RefreshAll right after it changes nothing.
//
// JoinBulk is for initial population only: it must run before any data
// is stored on the ring (there is nothing to transfer ownership of) and
// it returns an error if any existing node already holds items.
func (r *Ring) JoinBulk(n int, rng *xrand.Source) ([]*Node, error) {
	all := r.idx.appendAll(make([]entry, 0, r.idx.size+n))
	for _, e := range all {
		if s := r.Node(e.h).store; len(s) > 0 {
			return nil, fmt.Errorf("chord: JoinBulk on a ring holding data (node %d has %d keys)", e.id, len(s))
		}
	}
	out := make([]*Node, 0, n)
	for range n {
		id, ok := ID(0), false
		for tries := 0; tries < 64; tries++ {
			// An xrand stream never repeats a value (splitmix64 mixes a
			// state that steps by an odd constant, bijectively), so only
			// the nodes already on the ring can collide with a draw.
			id = rng.Uint64()
			if !r.idx.has(id) {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("chord: could not find a free id after 64 tries")
		}
		nd := r.alloc(id)
		all = append(all, entry{id: id, h: nd.h})
		out = append(out, nd)
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
	if r.idx.size > 1 && len(n.store) > 0 {
		succ := r.Node(r.idx.after(n.id).h)
		if succ.store == nil {
			succ.store = make(map[ID]map[string]any, len(n.store))
		}
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

// remove takes n off the ring. A dead node never routes again, so its own
// routing state and store go with it; its slab slot stays, for the
// fingers and successor entries that still name it.
func (r *Ring) remove(n *Node) {
	n.alive = false
	r.idx.remove(n.id)
	n.fingers, n.succ, n.store = nil, nil, nil
}

// successorOf returns the first alive node with id >= target (wrapping).
// When excludeSelf is true a node exactly at target is skipped. The ring
// must not be empty.
func (r *Ring) successorOf(target ID, excludeSelf bool) *Node {
	if excludeSelf {
		return r.Node(r.idx.after(target).h)
	}
	return r.Node(r.idx.ceil(target).h)
}

// predecessorOf returns the last alive node with id < target (wrapping).
// The ring must not be empty.
func (r *Ring) predecessorOf(target ID) *Node { return r.Node(r.idx.before(target).h) }

// Owner returns the ground-truth owner of key, successor(key), or nil on
// an empty ring.
func (r *Ring) Owner(key ID) *Node {
	if r.idx.size == 0 {
		return nil
	}
	return r.successorOf(key, false)
}

// RefreshNode recomputes n's finger table and successor list from ring
// ground truth — the simulation stand-in for Chord's periodic
// stabilize/fix_fingers exchanges. Call it periodically; between calls the
// node routes with whatever (possibly stale) state it has.
//
// Finger i is successor(n.id + 2^i), and a finger f found at level i is
// also the answer at every higher level whose start still lies in (n, f]:
// no alive node sits between those starts and f. With N nodes that leaves
// ~log₂N searches instead of 64, one per run — the low ~64−log₂N levels
// all resolve to successor(n) in one.
func (r *Ring) RefreshNode(n *Node) {
	if !n.alive {
		return
	}
	var buf [64]Handle
	runs := buf[:0]
	for i := 0; i < 64; {
		f := r.idx.ceil(n.id + ID(1)<<uint(i)) // wraps mod 2^64 naturally
		runs = append(runs, f.h)
		i = reach(n.id, f.id)
	}
	// Overwrite the runs in place when they fit: an arena slot from a
	// bulk refresh, or the node's own slice from the last one.
	if cap(n.fingers) < len(runs) {
		n.fingers = make([]Handle, len(runs))
	}
	n.fingers = n.fingers[:len(runs)]
	copy(n.fingers, runs)
	if n.succ == nil {
		n.succ = make([]Handle, 0, r.cfg.SuccessorListLen)
	}
	n.succ = r.idx.appendAfter(n.succ[:0], n.id, min(r.cfg.SuccessorListLen, r.idx.size-1))
}

// RefreshAll refreshes every alive node. It computes exactly the state
// per-node RefreshNode calls would (the equivalence is pinned by a test).
func (r *Ring) RefreshAll() {
	r.refreshAll(r.idx.appendAll(make([]entry, 0, r.idx.size)))
}

// refreshAll is RefreshAll over the index's entries laid out flat. It
// goes node by node, as RefreshNode does, but finds each run's finger by
// searching the flat ring forward from a lower bound instead of from the
// top of the index: the node's previous finger, or the previous node's
// finger at the same level, whichever is further on — a node's targets
// sit just past its predecessor's, so that bound is rarely more than a
// step short. It writes every node's runs and successor list into two
// shared arenas: a handful of allocations per call, not a few per node.
func (r *Ring) refreshAll(ring []entry) {
	n := len(ring)
	if n == 0 {
		return
	}
	k := min(r.cfg.SuccessorListLen, n-1)
	succ := make([]Handle, n*k)
	// ~log₂N runs a node; a ring that needs more grows the arena once.
	fingers := make([]Handle, 0, n*(bits.Len(uint(n))+1))
	ends := make([]int32, n)
	at := func(q int) entry { // q is a position past j, unwrapped
		if q >= n {
			q -= n
		}
		return ring[q]
	}
	// prev[i] is the previous node's level-i finger position, a lower
	// bound on this node's: its target is further round by the gap
	// between the two.
	var prev [64]int
	for j, e := range ring {
		// p is the current finger's unwrapped position: j+1..j+n-1 are
		// the other nodes in ring order, and j+n is the node itself,
		// which every level reaches if no other node does.
		p, self := j+1, j+n
		for i := 0; i < 64; {
			p = max(p, prev[i])
			d := ID(1) << uint(i)
			// Advance p to the first position at distance >= d from e:
			// gallop, then bisect the last step.
			if p < self && at(p).id-e.id < d {
				lo, step := p, 1
				for p = lo + step; p < self && at(p).id-e.id < d; p = lo + step {
					lo, step = p, step*2
				}
				p = min(p, self)
				for p-lo > 1 {
					mid := int(uint(lo+p) >> 1)
					if at(mid).id-e.id < d {
						lo = mid
					} else {
						p = mid
					}
				}
			}
			f := at(p)
			fingers = append(fingers, f.h)
			next := reach(e.id, f.id)
			for ; i < next; i++ {
				prev[i] = p
			}
		}
		ends[j] = int32(len(fingers))
		for t := range k {
			succ[j*k+t] = at(j + 1 + t).h
		}
	}
	start := 0
	for j, e := range ring {
		nd := r.Node(e.h)
		end := int(ends[j])
		nd.fingers = fingers[start:end:end]
		nd.succ = succ[j*k : (j+1)*k : (j+1)*k]
		start = end
	}
}

// firstAliveSuccessor returns the first alive entry of n's successor list,
// or nil when the whole list is dead/stale.
func (r *Ring) firstAliveSuccessor(n *Node) *Node {
	for _, h := range n.succ {
		if s := r.Node(h); s.alive {
			return s
		}
	}
	return nil
}

// closestPrecedingFinger returns the alive finger of n that most closely
// precedes key, or nil when no finger makes progress. Each dead finger it
// passes over on the way counts as a DeadFingerSkip, once per level of
// its run.
func (r *Ring) closestPrecedingFinger(n *Node, key ID) *Node {
	for j := len(n.fingers) - 1; j >= 0; j-- {
		f := r.Node(n.fingers[j])
		if f == n || f.id == n.id || f.id == key || !between(n.id, key, f.id) {
			continue
		}
		// f strictly precedes key going around from n.
		if !f.alive {
			lo := 0
			if j > 0 {
				lo = reach(n.id, r.Node(n.fingers[j-1]).id)
			}
			r.stats.DeadFingerSkips += uint64(reach(n.id, f.id) - lo)
			continue
		}
		return f
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
		succ := r.firstAliveSuccessor(cur)
		if succ == nil {
			// Isolated routing state (e.g. single node or fully stale
			// list): consult ground truth as last resort — equivalent to a
			// node falling back to its bootstrap contact.
			succ = r.successorOf(cur.id, true)
		}
		if succ == cur { // single-node ring
			r.finish(hops)
			return cur, hops, nil
		}
		if between(cur.id, succ.id, key) {
			// cur believes succ owns the key, but cur's successor pointer
			// may be stale (a node joined in between). As in Chord's
			// find_successor, the candidate confirms ownership and the
			// query walks forward until the true owner is reached.
			hops++
			for owner := r.idx.ceil(key).h; succ.h != owner; {
				succ = r.successorOf(succ.id, true)
				hops++
				r.stats.OwnerWalkHops++
				if hops >= r.cfg.MaxHops+r.idx.size {
					return nil, hops, fmt.Errorf("chord: owner walk for %d diverged", key)
				}
			}
			r.finish(hops)
			return succ, hops, nil
		}
		next := r.closestPrecedingFinger(cur, key)
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
	if int(n.visits) >= r.cfg.AutoRefreshEvery {
		r.RefreshNode(n)
		n.visits = 0
	}
}

// replicaTargets returns the handles of owner and of up to Replicas−1
// distinct alive successors of owner. The result is valid until the next
// call.
func (r *Ring) replicaTargets(owner *Node) []Handle {
	r.targets = append(r.targets[:0], owner.h)
	r.targets = r.idx.appendAfter(r.targets, owner.id, min(r.cfg.Replicas, r.idx.size)-1)
	return r.targets
}

// Get routes from start to the owner of key and returns the stored items.
// If the owner has none (it may have just joined and not yet received
// re-replication), the replicas are consulted.
func (r *Ring) Get(start *Node, key ID) (map[string]any, int, error) {
	owner, hops, err := r.Lookup(start, key)
	if err != nil {
		return nil, hops, err
	}
	for i, h := range r.replicaTargets(owner) {
		if i > 0 {
			hops++ // consulting a replica costs a hop; the owner is free
		}
		if m, ok := r.Node(h).store[key]; ok && len(m) > 0 {
			out := make(map[string]any, len(m))
			for k, v := range m {
				out[k] = v
			}
			return out, hops, nil
		}
	}
	return map[string]any{}, hops, nil
}

// ErrNotOwner is UpdateAt's answer when the node it was addressed to does
// not own the key: it has failed, or a join has taken the key over since
// the caller located it.
var ErrNotOwner = errors.New("chord: node does not own the key")

// Update routes from start to the owner of key and applies fn there, as
// UpdateAt does. It returns the owner it reached and the routing hop
// count.
func (r *Ring) Update(start *Node, key ID, itemID string, fn func(prev any) any) (*Node, int, error) {
	owner, hops, err := r.Lookup(start, key)
	if err != nil {
		return nil, hops, err
	}
	r.apply(owner, key, itemID, fn)
	return owner, hops, nil
}

// UpdateAt atomically applies fn, at the node with id owner, to the
// current value stored under itemID (nil when absent); the returned value
// replaces it on that node and its replicas, and nil deletes the item. It
// routes nothing: owner is a node the caller located before, and the
// write is refused with ErrNotOwner unless that node is alive and still
// owns key — as a real node that knows its predecessor would refuse it.
func (r *Ring) UpdateAt(owner, key ID, itemID string, fn func(prev any) any) error {
	n := r.Owner(key)
	if n == nil || n.id != owner {
		return ErrNotOwner
	}
	r.apply(n, key, itemID, fn)
	return nil
}

// apply is UpdateAt at an owner already known to own key.
func (r *Ring) apply(owner *Node, key ID, itemID string, fn func(prev any) any) {
	var prev any
	if m, ok := owner.store[key]; ok {
		prev = m[itemID]
	}
	next := fn(prev)
	for _, h := range r.replicaTargets(owner) {
		t := r.Node(h)
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
			if t.store == nil {
				t.store = make(map[ID]map[string]any)
			}
			m = make(map[string]any)
			t.store[key] = m
		}
		m[itemID] = next
	}
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
