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

type entry struct {
	rank    Rank
	expires float64
	info    Info
	probed  bool
}

// orderSlot is one insertion-order cell of a table: the neighbor and its
// entry inline, or a tombstone (pid == tombstonePID) left by a removal.
type orderSlot struct {
	pid topology.PeerID
	e   *entry
}

const tombstonePID topology.PeerID = -1

// Table is one peer's neighbor table, capped at M entries. Insertion order
// is tracked so that eviction scans are deterministic (Go map iteration
// order is randomized, which would break run reproducibility). The order
// slice carries the entries inline and removals leave tombstones, so both
// lookups and removals are O(1) and the eviction scan is one contiguous
// walk with no map probes; tombstones are compacted once they outnumber
// live slots.
type Table struct {
	cap   int
	pos   map[topology.PeerID]int // pid -> index in order
	order []orderSlot
	dead  int // tombstones in order
}

func (t *Table) insert(p topology.PeerID, e *entry) {
	t.pos[p] = len(t.order)
	t.order = append(t.order, orderSlot{pid: p, e: e})
}

func (t *Table) remove(p topology.PeerID) {
	i, ok := t.pos[p]
	if !ok {
		return
	}
	t.order[i] = orderSlot{pid: tombstonePID}
	delete(t.pos, p)
	t.dead++
	if t.dead > len(t.order)-t.dead {
		t.compact()
	}
}

// compact squeezes tombstones out of order, preserving insertion order.
func (t *Table) compact() {
	kept := t.order[:0]
	for _, s := range t.order {
		if s.pid == tombstonePID {
			continue
		}
		t.pos[s.pid] = len(kept)
		kept = append(kept, s)
	}
	t.order = kept
	t.dead = 0
}

// lookup returns the entry for p, or nil.
func (t *Table) lookup(p topology.PeerID) *entry {
	if i, ok := t.pos[p]; ok {
		return t.order[i].e
	}
	return nil
}

// Len returns the number of neighbors currently tracked (including
// expired-but-not-yet-evicted ones).
func (t *Table) Len() int { return len(t.pos) }

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
	cfg    Config
	net    *topology.Network
	tables map[topology.PeerID]*Table

	// Obs is the one count of probing activity; Stats reads it.
	// NewManager gives it private counters; wire it to a registry
	// before the first Resolve to publish them.
	Obs obs.ProbeCounters
}

// NewManager returns a manager over the given network.
func NewManager(cfg Config, net *topology.Network) *Manager {
	cfg.fillDefaults()
	return &Manager{cfg: cfg, net: net, tables: make(map[topology.PeerID]*Table),
		Obs: obs.NewProbeCounters(obs.NewRegistry())}
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

// Table returns owner's neighbor table, creating it on first use.
func (m *Manager) Table(owner topology.PeerID) *Table {
	t, ok := m.tables[owner]
	if !ok {
		t = &Table{cap: m.cfg.M, pos: make(map[topology.PeerID]int)}
		m.tables[owner] = t
	}
	return t
}

// DropPeer discards a departed peer's table.
func (m *Manager) DropPeer(owner topology.PeerID) { delete(m.tables, owner) }

// measure takes a fresh measurement of target from owner's perspective.
// reuse, when non-nil, donates its backing array to the measurement's
// availability vector (a refresh recycles the entry's previous one).
func (m *Manager) measure(owner, target topology.PeerID, now float64, reuse resource.Vector) Info {
	p, err := m.net.Peer(target)
	if err != nil || !p.Alive {
		return Info{Alive: false, Measured: now}
	}
	return Info{
		Available: p.Ledger.AvailableInto(reuse[:0]),
		Uptime:    p.Uptime(now),
		AvailKbps: m.net.BandwidthLedger().Available(int(target), int(owner)),
		Alive:     true,
		Measured:  now,
	}
}

// Resolve runs one step of the dynamic neighbor resolution protocol:
// candidates become (or stay) neighbors of owner at the given benefit
// rank, their soft state is refreshed, and any candidate without a
// within-period measurement is probed. Candidates that do not fit under
// the M cap (after evicting strictly lower-benefit entries) are skipped.
func (m *Manager) Resolve(owner topology.PeerID, candidates []topology.PeerID, rank Rank, now float64) {
	t := m.Table(owner)
	// Each atomic add is a memory barrier: count the call's events here
	// and add them to Obs once.
	var probes, hits, evictions, rejected uint64
	for _, c := range candidates {
		if c == owner {
			continue
		}
		e := t.lookup(c)
		if e == nil {
			if t.Len() >= t.cap {
				if !m.evictFor(t, rank, now) {
					rejected++
					continue
				}
				evictions++
			}
			e = &entry{rank: rank}
			t.insert(c, e)
		}
		if rank < e.rank {
			e.rank = rank // promotion to a more beneficial class
		}
		e.expires = now + m.cfg.TTL
		if !e.probed || now-e.info.Measured >= m.cfg.Period {
			e.info = m.measure(owner, c, now, e.info.Available)
			e.probed = true
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

// evictFor frees one slot for a newcomer of the given rank: expired
// entries go first, then any entry of strictly worse (greater) rank. It
// reports whether a slot was freed.
func (m *Manager) evictFor(t *Table, rank Rank, now float64) bool {
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
			// keep scanning: an expired entry is a better victim
		}
	}
	if !found {
		return false
	}
	t.remove(victim)
	return true
}

// Fresh returns owner's usable measurement of candidate: the entry must
// exist, be unexpired soft state, and have been probed. The caller decides
// what to do on a miss (the paper: fall back to random selection). The
// Info's Available vector aliases the table entry and is overwritten by
// the next re-probe — consume it before the clock advances, don't retain
// it.
func (m *Manager) Fresh(owner, candidate topology.PeerID, now float64) (Info, bool) {
	t, ok := m.tables[owner]
	if !ok {
		return Info{}, false
	}
	e := t.lookup(candidate)
	if e == nil || !e.probed || e.expires <= now {
		return Info{}, false
	}
	return e.info, true
}

// NeighborCount returns how many neighbors owner currently tracks.
func (m *Manager) NeighborCount(owner topology.PeerID) int {
	t, ok := m.tables[owner]
	if !ok {
		return 0
	}
	return t.Len()
}
