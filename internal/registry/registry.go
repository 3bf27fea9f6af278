// Package registry implements the service discovery layer of QSA: a
// soft-state registry of (service instance, provider peer) bindings built
// on the Chord DHT.
//
// This is the paper's step two of on-demand service composition (§3.2):
// "the P2P lookup protocol, such as Chord or CAN, is invoked to retrieve
// the locations (i.e., IP addresses) and QoS specifications (Qin, Qout, R)
// of all candidate service instances, according to the abstract service
// path."
//
// Providers register themselves under the hash of the abstract service
// name; registrations are soft state with a TTL and must be refreshed
// periodically, so a departed peer's bindings age out on their own —
// mirroring the paper's soft-state neighbor lists (§3.3). Between the
// departure and the TTL expiry a lookup may still return the dead
// provider; peer selection has to cope (and the churn experiments measure
// exactly that window).
package registry

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/chord"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// providerReg is one soft-state provider registration.
type providerReg struct {
	pid     topology.PeerID
	expires float64
}

// InstanceEntry is the registry record for one service instance: its
// QoS/resource specification plus the soft-state provider set. Provider
// registrations are kept as a contiguous slice sorted by ascending PeerID
// (the registry's deterministic order), found by binary search — the hot
// paths (Providers, expiry pruning) are straight array walks with no map
// iteration and no per-call sort.
type InstanceEntry struct {
	Inst  *service.Instance
	provs []providerReg // ascending pid
}

// find returns the position of p's registration, or where it would be
// inserted, and whether it is present.
func (e *InstanceEntry) find(p topology.PeerID) (int, bool) {
	i := sort.Search(len(e.provs), func(i int) bool { return e.provs[i].pid >= p })
	return i, i < len(e.provs) && e.provs[i].pid == p
}

// upsert records (or refreshes) a provider registration.
func (e *InstanceEntry) upsert(p topology.PeerID, expires float64) {
	at, ok := e.find(p)
	if ok {
		e.provs[at].expires = expires
		return
	}
	e.provs = slices.Insert(e.provs, at, providerReg{pid: p, expires: expires})
}

// drop removes a provider registration if present.
func (e *InstanceEntry) drop(p topology.PeerID) {
	if at, ok := e.find(p); ok {
		e.provs = slices.Delete(e.provs, at, at+1)
	}
}

// pruneExpired drops registrations whose expiry is at or before now.
func (e *InstanceEntry) pruneExpired(now float64) {
	e.provs = slices.DeleteFunc(e.provs, func(r providerReg) bool { return r.expires <= now })
}

// Providers appends to dst the peers whose registration is live at time
// now, in ascending PeerID order (deterministic), and returns dst.
func (e *InstanceEntry) Providers(now float64, dst []topology.PeerID) []topology.PeerID {
	for _, r := range e.provs {
		if r.expires > now {
			dst = append(dst, r.pid)
		}
	}
	return dst
}

// ProviderCount returns the number of live registrations at time now.
func (e *InstanceEntry) ProviderCount(now float64) int {
	c := 0
	for _, r := range e.provs {
		if r.expires > now {
			c++
		}
	}
	return c
}

// minExpiry returns the earliest live-registration expiry after now, or
// +Inf when none is live — the time at which this entry's provider set
// next changes without a registry mutation.
func (e *InstanceEntry) minExpiry(now float64) float64 {
	min := math.Inf(1)
	for _, r := range e.provs {
		if r.expires > now && r.expires < min {
			min = r.expires
		}
	}
	return min
}

// Config parameterizes the registry.
type Config struct {
	// TTL is the soft-state lifetime of one registration in minutes;
	// providers must refresh within it. Default 10.
	TTL float64
	// Chord configures the underlying DHT ring.
	Chord chord.Config
	// DisableCache turns off the epoch-keyed lookup cache, forcing every
	// Lookup through the DHT. Results are byte-identical either way (the
	// differential suite asserts this); only routing statistics differ.
	DisableCache bool
}

func (c *Config) fillDefaults() {
	if c.TTL == 0 {
		c.TTL = 10
	}
}

// cachedLookup is one epoch-cache slot: the Lookup result for a service
// name, valid while the registry epoch is unchanged AND the virtual clock
// has not crossed the earliest provider expiry in the result (the TTL
// horizon) — past either boundary the uncached result could differ.
type cachedLookup struct {
	epoch      uint64
	validUntil float64 // earliest provider expiry across the entries
	entries    []*InstanceEntry
}

// ownerHint is the ID of the owner a peer's last write under key reached.
// It holds no pointer: a departed owner is not kept alive by a hint.
type ownerHint struct {
	key, owner chord.ID
}

// Registry binds peers to Chord nodes and stores instance/provider
// records on the ring.
type Registry struct {
	cfg   Config
	ring  *chord.Ring
	nodes map[topology.PeerID]*chord.Node
	rng   *xrand.Source

	// owners holds, for each joined peer that has written, the owner its
	// last write under each service key reached; RemovePeer drops the
	// peer's. directWrites counts the writes that went straight there.
	owners       map[topology.PeerID][]ownerHint
	directWrites uint64

	// epoch is the monotonic mutation counter: every Register, Unregister,
	// peer join and peer leave bumps it, invalidating the lookup cache.
	epoch uint64
	cache map[service.Name]*cachedLookup

	cacheHits, cacheMisses uint64

	// Obs mirrors cache activity into a metrics registry when wired; the
	// zero value no-ops.
	Obs obs.DiscoveryCounters
}

// New returns an empty registry.
func New(cfg Config, seed uint64) *Registry {
	cfg.fillDefaults()
	return &Registry{
		cfg:    cfg,
		ring:   chord.NewRing(cfg.Chord),
		nodes:  make(map[topology.PeerID]*chord.Node),
		rng:    xrand.New(seed).SplitLabeled("registry"),
		owners: make(map[topology.PeerID][]ownerHint),
		cache:  make(map[service.Name]*cachedLookup),
	}
}

// LookupStats is the registry's routing statistics view. Lookups and
// TotalHops count real ring traversals; cache hits and direct writes skip
// routing entirely and are never counted as Lookups, so hop averages stay
// attributed to real traversals only.
type LookupStats struct {
	Lookups   uint64
	TotalHops uint64

	// DirectWrites are Register/Unregister calls that went straight to
	// the owner the peer last reached under the same key; each would have
	// been one more Lookup had it routed.
	DirectWrites uint64

	CacheHits   uint64 // lookups served from the registry's epoch cache
	CacheMisses uint64 // lookups that fell through to the ring
	Epoch       uint64 // the registry's mutation epoch at snapshot time
}

// MeanHops returns the average routing hops per lookup.
func (s LookupStats) MeanHops() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.TotalHops) / float64(s.Lookups)
}

// Stats exposes the ring's routing statistics plus the registry's own
// cache effectiveness counters.
func (r *Registry) Stats() LookupStats {
	s := r.ring.Stats()
	return LookupStats{
		Lookups:      s.Lookups,
		TotalHops:    s.TotalHops,
		DirectWrites: r.directWrites,
		CacheHits:    r.cacheHits,
		CacheMisses:  r.cacheMisses,
		Epoch:        r.epoch,
	}
}

// RingStats returns the ring's own routing statistics, whose hop split by
// cause LookupStats does not carry.
func (r *Registry) RingStats() chord.Stats { return r.ring.Stats() }

// Epoch returns the current mutation epoch.
func (r *Registry) Epoch() uint64 { return r.epoch }

// bumpEpoch advances the mutation epoch, invalidating every cache slot.
func (r *Registry) bumpEpoch() {
	r.epoch++
	r.Obs.EpochBumps.Inc()
}

// Stabilize brings all routing state to convergence: every node
// refreshes its fingers and successor list from ring ground truth, the
// converged end state of Chord's stabilize/fix_fingers rounds. Call it
// after bulk joins (initial grid setup): a real deployment would have run
// its stabilization protocol continuously, so a freshly *observed* grid
// starts converged.
func (r *Registry) Stabilize() { r.ring.RefreshAll() }

// TTL returns the soft-state registration lifetime.
func (r *Registry) TTL() float64 { return r.cfg.TTL }

// AddPeer joins the peer's Chord node. Idempotent additions are an
// error: the caller owns peer lifecycle.
func (r *Registry) AddPeer(p topology.PeerID) error {
	if _, ok := r.nodes[p]; ok {
		return fmt.Errorf("registry: peer %d already joined", p)
	}
	n, err := r.ring.JoinRandom(fmt.Sprintf("peer-%d", p), r.rng)
	if err != nil {
		return err
	}
	r.nodes[p] = n
	r.bumpEpoch() // the join may have re-homed stored keys
	return nil
}

// AddPeers joins many peers' Chord nodes at once (initial population):
// ids are drawn from the registry's stream exactly as sequential AddPeer
// calls would draw them, but the ring is sorted and its routing state
// refreshed once at the end, avoiding the per-join insert + refresh that
// makes a 10⁶-peer population infeasible. The epoch advances once per
// peer, so epoch counts match the sequential path exactly.
func (r *Registry) AddPeers(ps []topology.PeerID) error {
	labels := make([]string, len(ps))
	for i, p := range ps {
		if _, dup := r.nodes[p]; dup {
			return fmt.Errorf("registry: peer %d already joined", p)
		}
		labels[i] = fmt.Sprintf("peer-%d", p)
	}
	nodes, err := r.ring.JoinBulk(labels, r.rng)
	if err != nil {
		return err
	}
	for i, p := range ps {
		r.nodes[p] = nodes[i]
		r.bumpEpoch()
	}
	return nil
}

// RemovePeer removes the peer's Chord node — gracefully (keys handed
// over) or abruptly (fail, as under churn) — and the owners it remembers.
func (r *Registry) RemovePeer(p topology.PeerID, graceful bool) error {
	n, ok := r.nodes[p]
	if !ok {
		return fmt.Errorf("registry: unknown peer %d", p)
	}
	delete(r.nodes, p)
	delete(r.owners, p)
	r.bumpEpoch() // an abrupt removal may lose stored data
	if graceful {
		return r.ring.Leave(n)
	}
	return r.ring.Fail(n)
}

// node returns the Chord node of a joined peer.
func (r *Registry) node(p topology.PeerID) (*chord.Node, error) {
	n, ok := r.nodes[p]
	if !ok || !n.Alive() {
		return nil, fmt.Errorf("registry: peer %d not on the DHT", p)
	}
	return n, nil
}

func serviceKey(name service.Name) chord.ID { return chord.HashString(string(name)) }

// write applies fn to itemID under key at the key's owner, on behalf of
// peer from. While the ring still names the owner from's last write under
// key reached, the write goes straight there and routes nothing (a
// DirectWrite); otherwise it routes from from's node, paying the hops, and
// from remembers the owner it reached. Either way it lands on the same
// owner, so only the routing statistics tell the two apart.
func (r *Registry) write(from topology.PeerID, key chord.ID, itemID string, fn func(prev any) any) error {
	n, err := r.node(from)
	if err != nil {
		return err
	}
	r.bumpEpoch()
	hints := r.owners[from]
	h := slices.IndexFunc(hints, func(h ownerHint) bool { return h.key == key })
	if h >= 0 && r.ring.UpdateAt(hints[h].owner, key, itemID, fn) == nil {
		r.directWrites++
		return nil
	}
	owner, _, err := r.ring.Update(n, key, itemID, fn)
	if err != nil {
		return err
	}
	if h >= 0 {
		hints[h].owner = owner.ID()
	} else {
		r.owners[from] = append(hints, ownerHint{key: key, owner: owner.ID()})
	}
	return nil
}

// Register records (or refreshes) provider as hosting inst, written from
// peer from: routed from from's node the first time, then straight to the
// owner it reached for as long as that node owns the service's key
// (write). The registration expires TTL minutes after now unless
// refreshed. Expired co-registrations of the same instance are pruned
// opportunistically.
func (r *Registry) Register(from topology.PeerID, inst *service.Instance, provider topology.PeerID, now float64) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	return r.write(from, serviceKey(inst.Service), inst.ID, func(prev any) any {
		e, ok := prev.(*InstanceEntry)
		if !ok || e == nil {
			e = &InstanceEntry{Inst: inst}
		}
		e.pruneExpired(now)
		e.upsert(provider, now+r.cfg.TTL)
		return e
	})
}

// Unregister drops provider's registration for inst immediately (graceful
// provider shutdown; abrupt departures just let the TTL lapse).
func (r *Registry) Unregister(from topology.PeerID, inst *service.Instance, provider topology.PeerID) error {
	return r.write(from, serviceKey(inst.Service), inst.ID, func(prev any) any {
		e, ok := prev.(*InstanceEntry)
		if !ok || e == nil {
			return nil
		}
		e.drop(provider)
		if len(e.provs) == 0 {
			return nil
		}
		return e
	})
}

// Lookup retrieves all candidate instances of the abstract service, with
// their live provider sets, by routing a DHT query from peer from. Entries
// whose provider sets are entirely expired are omitted. The result is
// sorted by instance ID (deterministic). hops is the DHT routing cost.
//
// Results are served from the epoch cache when no registry mutation has
// occurred since the last real lookup for the same name AND the clock has
// not crossed the result's earliest provider expiry (so a soft-state
// lapse can never be masked). Cache hits pay zero hops and are counted in
// LookupStats.CacheHits, never in Lookups. The returned slice is shared
// with the cache and other callers: treat it as immutable.
func (r *Registry) Lookup(from topology.PeerID, name service.Name, now float64) ([]*InstanceEntry, int, error) {
	n, err := r.node(from)
	if err != nil {
		return nil, 0, err
	}
	if !r.cfg.DisableCache {
		if c, ok := r.cache[name]; ok && c.epoch == r.epoch && now < c.validUntil {
			r.cacheHits++
			r.Obs.CacheHits.Inc()
			return c.entries, 0, nil
		}
		r.cacheMisses++
		r.Obs.CacheMisses.Inc()
	}
	return r.route(n, name, now)
}

// route is Lookup past the epoch cache: it routes the query through the
// ring and rebuilds (and, with the cache on, stores) the sorted result.
func (r *Registry) route(n *chord.Node, name service.Name, now float64) (entries []*InstanceEntry, hops int, err error) {
	r.Obs.Lookups.Inc()
	items, hops, err := r.ring.Get(n, serviceKey(name))
	if err != nil {
		return nil, hops, err
	}
	validUntil := math.Inf(1)
	for _, v := range items {
		e, ok := v.(*InstanceEntry)
		if !ok || e == nil {
			continue
		}
		if e.ProviderCount(now) == 0 {
			continue
		}
		if m := e.minExpiry(now); m < validUntil {
			validUntil = m
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Inst.ID < entries[j].Inst.ID })
	if !r.cfg.DisableCache {
		r.cache[name] = &cachedLookup{epoch: r.epoch, validUntil: validUntil, entries: entries}
	}
	return entries, hops, nil
}

// PeerCount returns the number of peers currently joined to the ring.
func (r *Registry) PeerCount() int { return len(r.nodes) }
