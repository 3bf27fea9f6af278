// Package probe implements QSA's controlled, benefit-based probing and the
// dynamic neighbor resolution protocol (paper §2.2, §3.3).
//
// Each peer maintains up-to-date performance information — end-system
// resource availability, uptime, and end-to-end available bandwidth β —
// for at most M other peers ("neighbors"). Which peers qualify is decided
// by benefit rank: 1-hop direct neighbors first, then 1-hop indirect, then
// 2-hop direct, and so on; when the table is full a lower-benefit entry is
// evicted for a higher-benefit one, never the other way around. Neighbor
// entries are soft state: resolution messages refresh them, and entries
// that stop being refreshed expire.
//
// Measurements are cached for a probe period. A neighbor admitted (or
// refreshed) by resolution is re-probed only if its last measurement is
// older than the period, so a selector can act on information that is up
// to one period stale — the staleness the paper trades for a bounded
// probing overhead of M/N (100/10⁴ = 1%).
//
// The information consumer is the dynamic peer selection tier: a selecting
// peer may use ONLY its own table. A candidate it has no fresh entry for
// is invisible to the Φ metric and triggers the paper's random fallback.
package probe

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/resource"
	"repro/internal/topology"
)

// Info is one probe measurement of a candidate peer, taken from the
// perspective of the probing peer.
type Info struct {
	Available resource.Vector // candidate's end-system availability RA
	Uptime    float64         // candidate's uptime at measurement time
	AvailKbps float64         // β: available bandwidth candidate → prober
	Alive     bool            // candidate was connected when probed
	Measured  float64         // measurement timestamp (simulated minutes)
}

// Rank encodes the benefit class of a neighbor, lower = more beneficial.
// The paper's probing order is: 1-hop direct, 1-hop indirect, 2-hop
// direct, 2-hop indirect, … which DirectRank/IndirectRank reproduce.
type Rank int

// DirectRank returns the benefit rank of an i-hop direct neighbor (i ≥ 1).
func DirectRank(hop int) Rank { return Rank(2 * (hop - 1)) }

// IndirectRank returns the benefit rank of an i-hop indirect neighbor.
func IndirectRank(hop int) Rank { return Rank(2*(hop-1) + 1) }

// slot is one insertion-order cell of a table: a neighbor's entry held by
// value, or a tombstone (pid == tombstonePID) left by a removal. The
// neighbor's availability vector is row i of the table's slab.
type slot struct {
	expires  float64 // soft-state deadline (simulated minutes)
	measured float64 // Info.Measured
	uptime   float64 // Info.Uptime
	kbps     float64 // Info.AvailKbps
	pid      int32
	rank     int32 // Rank
	alive    bool  // Info.Alive
	probed   bool
}

const tombstonePID int32 = -1

// table is one peer's neighbor table, capped at M entries, and holds no
// pointer per neighbor: the entries sit by value in the insertion-order
// slice and the availability vectors in one slab beside it, dim floats
// per slot. Insertion order is tracked so that eviction scans are
// deterministic. Removals leave tombstones, so lookups and removals are
// O(1) and the eviction scan is one contiguous walk. Tombstones are
// compacted once they outnumber live slots, and an insert that would grow
// a full order slice of at least slack() slots compacts instead: live ≤
// M, so that frees at least M/4 slots and the slice never holds more than
// 5M/4.
//
// idx finds a neighbor's slot: an open-addressed, linearly probed hash
// of pid to slot index with at least two buckets per slot of cap(order),
// rebuilt whenever order is grown or compacted. A removal marks its
// bucket deleted, so every bucket in use stands for one slot of order
// and at least half the buckets are always empty: a probe sequence ends
// at an empty bucket within a few steps.
//
// minExpires and maxRank bound every live slot's expiry from below and
// its rank from above. The setters (insert, renew) widen them as they
// write, and a full eviction scan tightens them to the exact values, so
// evictFor can rule a victim out without a scan.
type table struct {
	cap   int
	idx   []int32 // open-addressed: slot index + 1, idxEmpty or idxDeleted
	shift uint8   // 32 − log2(len(idx)): hash(pid) is its top bits
	order []slot
	avail []float64 // slot i's availability is avail[i*dim : (i+1)*dim]
	dim   int       // resource dimension; 0 until the first live measurement
	dead  int       // tombstones in order

	minExpires float64
	maxRank    int32
}

// Bucket marks of table.idx; a bucket in use holds its slot's index + 1,
// so a cleared index is all empty.
const (
	idxEmpty   int32 = 0
	idxDeleted int32 = -1
)

func newTable(m int) *table {
	return &table{cap: m, minExpires: math.Inf(1), maxRank: math.MinInt32}
}

// bucket is p's home bucket in idx: Fibonacci hashing of the pid.
func (t *table) bucket(p int32) uint32 { return uint32(p) * 0x9E3779B9 >> t.shift }

// lookup returns the bucket holding p's slot index, or −1 when p has no
// slot.
func (t *table) lookup(p int32) int {
	if len(t.idx) == 0 {
		return -1
	}
	mask := uint32(len(t.idx) - 1)
	for b := t.bucket(p); ; b = (b + 1) & mask {
		switch v := t.idx[b]; {
		case v == idxEmpty:
			return -1
		case v > 0 && t.order[v-1].pid == p:
			return int(b)
		}
	}
}

// find returns the index of p's slot in order.
func (t *table) find(p int32) (int32, bool) {
	if b := t.lookup(p); b >= 0 {
		return t.idx[b] - 1, true
	}
	return 0, false
}

// place records slot i, holding p, in the first free bucket of p's probe
// sequence. p must have no slot yet.
func (t *table) place(p, i int32) {
	mask := uint32(len(t.idx) - 1)
	b := t.bucket(p)
	for t.idx[b] > 0 {
		b = (b + 1) & mask
	}
	t.idx[b] = i + 1
}

// reindex rebuilds idx for the live slots of order, sized for cap(order).
func (t *table) reindex() {
	n, bits := 2*cap(t.order), uint8(1)
	for 1<<bits < n {
		bits++
	}
	if len(t.idx) != 1<<bits {
		t.idx = make([]int32, 1<<bits)
		t.shift = 32 - bits
	} else {
		clear(t.idx)
	}
	for i, s := range t.order {
		if s.pid != tombstonePID {
			t.place(s.pid, int32(i))
		}
	}
}

// slack is the order slice's capacity bound, 5M/4.
func (t *table) slack() int { return t.cap + t.cap/4 }

// insert appends an unprobed entry for p at the given rank, expiring at
// expires, and returns its index. The table must hold fewer than M
// neighbors.
func (t *table) insert(p int32, rank Rank, expires float64) int32 {
	if n := len(t.order); n == cap(t.order) {
		if n >= t.slack() {
			t.compact()
		} else {
			t.grow(min(max(2*n, 8), t.slack()))
		}
	}
	i := int32(len(t.order))
	t.order = append(t.order, slot{pid: p, rank: int32(rank), expires: expires})
	t.place(p, i)
	t.avail = t.avail[:len(t.order)*t.dim]
	t.minExpires = min(t.minExpires, expires)
	t.maxRank = max(t.maxRank, int32(rank))
	return i
}

// renew refreshes slot i's soft state to expire at expires and promotes it
// to rank if that is more beneficial. Neither can raise the rank, so only
// the expiry bound may widen.
func (t *table) renew(i int32, rank Rank, expires float64) {
	s := &t.order[i]
	s.rank = min(s.rank, int32(rank))
	s.expires = expires
	t.minExpires = min(t.minExpires, expires)
}

// grow reallocates order and the slab to hold n slots, and the slot
// index to match.
func (t *table) grow(n int) {
	order := make([]slot, len(t.order), n)
	copy(order, t.order)
	t.order = order
	avail := make([]float64, len(t.avail), n*t.dim)
	copy(avail, t.avail)
	t.avail = avail
	t.reindex()
}

func (t *table) remove(p int32) {
	b := t.lookup(p)
	if b < 0 {
		return
	}
	t.order[t.idx[b]-1] = slot{pid: tombstonePID}
	t.idx[b] = idxDeleted
	t.dead++
	if t.dead > len(t.order)-t.dead {
		t.compact()
	}
}

// compact squeezes tombstones out of order, preserving insertion order;
// each survivor's availability row moves with it.
func (t *table) compact() {
	d := t.dim
	n := 0
	for i, s := range t.order {
		if s.pid == tombstonePID {
			continue
		}
		if n != i {
			t.order[n] = s
			copy(t.avail[n*d:(n+1)*d], t.avail[i*d:(i+1)*d])
		}
		n++
	}
	t.order = t.order[:n]
	t.avail = t.avail[:n*d]
	t.dead = 0
	t.reindex()
}

// row returns slot i's availability row for a vector of dimension d. The
// first live measurement fixes the table's stride; the resource dimension
// is fixed per simulation (resource.Vector), so a different d is a
// programming error.
func (t *table) row(i int32, d int) resource.Vector {
	if d != t.dim {
		if t.dim != 0 {
			// lint:allow panic-in-library dimension mismatch is a programming error, as in resource.Vector
			panic(fmt.Sprintf("probe: dimension mismatch %d vs %d", d, t.dim))
		}
		t.dim = d
		t.avail = make([]float64, d*len(t.order), d*cap(t.order))
	}
	at := int(i) * d
	return t.avail[at : at+d : at+d]
}

// evictFor frees one slot for a newcomer of the given rank: expired
// entries go first, then the first entry of strictly worse (greater)
// rank. It returns the victim, or false when nothing may be evicted.
//
// When the bounds say nothing can have expired, the first worse rank is
// the victim; when they also say no rank is worse, there is none and
// nothing is scanned.
func (t *table) evictFor(rank Rank, now float64) (int32, bool) {
	mayExpire := now >= t.minExpires
	if !mayExpire && int32(rank) >= t.maxRank {
		return 0, false
	}
	victim, full := -1, true
	minExpires, maxRank := math.Inf(1), int32(math.MinInt32)
	for i := range t.order {
		s := &t.order[i]
		if s.pid == tombstonePID {
			continue
		}
		if s.expires <= now {
			victim, full = i, false
			break
		}
		if victim < 0 && s.rank > int32(rank) {
			victim = i // an expired entry would be a better victim
			if !mayExpire {
				full = false
				break
			}
		}
		minExpires, maxRank = min(minExpires, s.expires), max(maxRank, s.rank)
	}
	if full {
		t.minExpires, t.maxRank = minExpires, maxRank
	}
	if victim < 0 {
		return 0, false
	}
	p := t.order[victim].pid
	t.remove(p)
	return p, true
}

// size returns the number of neighbors currently tracked (including
// expired-but-not-yet-evicted ones).
func (t *table) size() int { return len(t.order) - t.dead }

// Stats counts manager-wide probing activity.
type Stats struct {
	Probes    uint64 // actual measurements taken
	CacheHits uint64 // resolutions served by a within-period measurement
	Evictions uint64 // lower-benefit neighbors displaced
	Rejected  uint64 // candidates denied because the table was full of
	// equal-or-higher-benefit neighbors
}

// Config parameterizes the probing layer.
type Config struct {
	// M is the maximum number of neighbors any peer probes (paper: 100,
	// giving the 1% overhead bound on a 10⁴-peer grid).
	M int
	// TTL is the soft-state neighbor lifetime in minutes. Default 10.
	TTL float64
	// Period is the probe caching period in minutes: a measurement younger
	// than this is reused rather than re-taken. Default 1.
	Period float64
}

func (c *Config) fillDefaults() {
	if c.M == 0 {
		c.M = 100
	}
	if c.TTL == 0 {
		c.TTL = 10
	}
	if c.Period == 0 {
		c.Period = 1
	}
}

// Manager owns the neighbor tables of all peers and performs measurements
// against the network ground truth (a probe in the simulator is an
// instantaneous read of the target's true state — what a real probe packet
// would report, minus propagation delay).
type Manager struct {
	cfg Config
	net *topology.Network
	// tables holds each peer's neighbor table at its PeerID (topology
	// numbers peers densely from 0); nil until the peer first resolves.
	tables []*table

	// Obs is the one count of probing activity; Stats reads it.
	// NewManager gives it private counters; wire it to a registry
	// before the first Resolve to publish them.
	Obs obs.ProbeCounters
}

// NewManager returns a manager over the given network.
func NewManager(cfg Config, net *topology.Network) *Manager {
	cfg.fillDefaults()
	m := &Manager{cfg: cfg, net: net, Obs: obs.NewProbeCounters(obs.NewRegistry())}
	if net != nil {
		m.tables = make([]*table, net.TotalCount())
	}
	return m
}

// Stats returns cumulative probing statistics.
func (m *Manager) Stats() Stats {
	return Stats{
		Probes:    m.Obs.Probes.Value(),
		CacheHits: m.Obs.CacheHits.Value(),
		Evictions: m.Obs.Evictions.Value(),
		Rejected:  m.Obs.Rejected.Value(),
	}
}

// Config returns the active configuration.
func (m *Manager) Config() Config { return m.cfg }

// table returns owner's neighbor table, creating it on first use.
func (m *Manager) table(owner topology.PeerID) *table {
	for int(owner) >= len(m.tables) {
		m.tables = append(m.tables, nil)
	}
	t := m.tables[owner]
	if t == nil {
		t = newTable(m.cfg.M)
		m.tables[owner] = t
	}
	return t
}

// existing returns owner's neighbor table, or nil when it has none.
func (m *Manager) existing(owner topology.PeerID) *table {
	if owner < 0 || int(owner) >= len(m.tables) {
		return nil
	}
	return m.tables[owner]
}

// DropPeer discards a departed peer's table.
func (m *Manager) DropPeer(owner topology.PeerID) {
	if m.existing(owner) != nil {
		m.tables[owner] = nil
	}
}

// measure takes a fresh measurement of target from owner's perspective
// into slot i of owner's table t.
func (m *Manager) measure(t *table, i int32, owner, target topology.PeerID, now float64) {
	s := &t.order[i]
	s.measured, s.probed = now, true
	p, err := m.net.Peer(target)
	if err != nil || !p.Alive {
		s.alive, s.uptime, s.kbps = false, 0, 0
		return
	}
	p.Ledger.AvailableInto(t.row(i, len(p.Capacity)))
	s.alive = true
	s.uptime = p.Uptime(now)
	s.kbps = m.net.BandwidthLedger().Available(int(target), int(owner))
}

// Resolve runs one step of the dynamic neighbor resolution protocol:
// candidates become (or stay) neighbors of owner at the given benefit
// rank, their soft state is refreshed, and any candidate without a
// within-period measurement is probed. Candidates that do not fit under
// the M cap (after evicting strictly lower-benefit entries) are skipped.
func (m *Manager) Resolve(owner topology.PeerID, candidates []topology.PeerID, rank Rank, now float64) {
	t := m.table(owner)
	// Each atomic add is a memory barrier: count the call's events here
	// and add them to Obs once.
	var probes, hits, evictions, rejected uint64
	for _, c := range candidates {
		if c == owner {
			continue
		}
		i, ok := t.find(int32(c))
		if !ok {
			if t.size() >= t.cap {
				if _, ok := t.evictFor(rank, now); !ok {
					rejected++
					continue
				}
				evictions++
			}
			i = t.insert(int32(c), rank, now+m.cfg.TTL)
		} else {
			t.renew(i, rank, now+m.cfg.TTL) // may promote to a more beneficial class
		}
		s := &t.order[i]
		if !s.probed || now-s.measured >= m.cfg.Period {
			m.measure(t, i, owner, c, now)
			probes++
		} else {
			hits++
		}
	}
	m.Obs.Probes.Add(probes)
	m.Obs.CacheHits.Add(hits)
	m.Obs.Evictions.Add(evictions)
	m.Obs.Rejected.Add(rejected)
}

// Fresh returns owner's usable measurement of candidate: the entry must
// exist, be unexpired soft state, and have been probed. The caller decides
// what to do on a miss (the paper: fall back to random selection). The
// Info's Available vector aliases owner's availability slab: the next
// re-probe overwrites it, and the next Resolve or DropPeer on owner may
// move or free it (a compaction moves rows). Consume it before then;
// don't retain it.
func (m *Manager) Fresh(owner, candidate topology.PeerID, now float64) (Info, bool) {
	t := m.existing(owner)
	if t == nil {
		return Info{}, false
	}
	i, ok := t.find(int32(candidate))
	if !ok {
		return Info{}, false
	}
	s := &t.order[i]
	if !s.probed || s.expires <= now {
		return Info{}, false
	}
	info := Info{Uptime: s.uptime, AvailKbps: s.kbps, Alive: s.alive, Measured: s.measured}
	if s.alive {
		info.Available = t.row(i, t.dim)
	}
	return info, true
}

// NeighborCount returns how many neighbors owner currently tracks.
func (m *Manager) NeighborCount(owner topology.PeerID) int {
	t := m.existing(owner)
	if t == nil {
		return 0
	}
	return t.size()
}
