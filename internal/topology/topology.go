// Package topology implements the network model of the QSA paper (§2.2,
// §4.1): a large population of heterogeneous peers connected over the
// wide-area Internet, with arbitrary arrivals and departures.
//
// Per the evaluation setup:
//
//   - each peer gets an initial end-system resource availability
//     RA = [cpu, memory] between [100,100] and [1000,1000] units
//     (heterogeneity: laptops ≈ 100, desktops ≈ 500, servers ≈ 1000);
//   - the end-to-end available bandwidth between any two peers is the
//     bottleneck bandwidth of the network path, drawn from
//     {10 Mbps, 500 kbps, 100 kbps, 56 kbps};
//   - the network latency between two peers is drawn from
//     {200, 150, 80, 20, 1} ms;
//   - peers arrive and depart at a configurable topological variation
//     rate; a peer's uptime is the duration it has remained connected.
//
// Pairwise link properties are derived from a keyed hash of the peer pair
// rather than stored: a 10⁴-peer grid would otherwise need a 10⁸-entry
// matrix. The hash is symmetric and stable for the lifetime of a run, so
// repeated queries agree — exactly the behaviour of the paper's statically
// initialized random matrix.
package topology

import (
	"fmt"

	"repro/internal/resource"
	"repro/internal/xrand"
)

// PeerID identifies a peer for the lifetime of a run. IDs are dense,
// starting at 0, and are never reused: a peer that departs keeps its ID and
// a newly arrived peer gets the next fresh ID.
type PeerID int

// Peer is one participant of the P2P grid.
type Peer struct {
	ID         PeerID
	Capacity   resource.Vector  // initial RA, immutable
	Ledger     *resource.Ledger // end-system reservation state
	JoinTime   float64          // simulated minute the peer connected
	Alive      bool
	DepartTime float64 // valid when !Alive
}

// Uptime returns how long the peer has been connected at time now — the
// paper's peer-selection metric for tolerating topological variation.
func (p *Peer) Uptime(now float64) float64 {
	if !p.Alive {
		return 0
	}
	return now - p.JoinTime
}

// Config parameterizes a Network. Zero values are replaced by the paper's
// defaults (see Default).
type Config struct {
	Seed uint64 // master seed for the whole run
	N    int    // initial number of peers (paper: 10⁴)

	// Per-peer capacity is a single scalar c drawn uniformly from
	// [MinCapacity, MaxCapacity] applied to both resource dimensions,
	// matching the paper's correlated examples ([100,100] laptop,
	// [500,500] desktop, [1000,1000] server).
	MinCapacity, MaxCapacity float64

	// BandwidthClasses are the possible pairwise bottleneck bandwidths in
	// kbps; LatencyClassesMs the possible pairwise latencies in ms. A pair's
	// class is chosen uniformly by hash.
	BandwidthClasses []float64
	LatencyClassesMs []float64

	// InitialUptimeMax seeds the initial population with ages: a peer
	// present at time 0 joined at −U(0, InitialUptimeMax), as in a grid
	// that has been running for a while (the paper measures a steady
	// system, not a cold start). 0 selects the default (240 minutes); a
	// negative value forces a cold start (all uptimes 0 at time 0).
	InitialUptimeMax float64

	// DepartureSample biases churn toward short-lived peers: a departure
	// samples this many alive peers and removes the youngest, giving
	// uptime the predictive power over remaining lifetime that measured
	// P2P populations show (Saroiu et al., MMCN'02 — the paper's [17]) and
	// that the QSA uptime heuristic exploits. 0 selects the default (3);
	// 1 makes departures uniform (memoryless churn).
	DepartureSample int
}

// Default returns the paper's evaluation configuration for n peers.
func Default(seed uint64, n int) Config {
	return Config{
		Seed:             seed,
		N:                n,
		MinCapacity:      100,
		MaxCapacity:      1000,
		BandwidthClasses: []float64{10000, 500, 100, 56}, // 10M, 500k, 100k, 56k bps
		LatencyClassesMs: []float64{200, 150, 80, 20, 1},
	}
}

func (c *Config) fillDefaults() {
	d := Default(c.Seed, c.N)
	if c.MinCapacity == 0 && c.MaxCapacity == 0 {
		c.MinCapacity, c.MaxCapacity = d.MinCapacity, d.MaxCapacity
	}
	if len(c.BandwidthClasses) == 0 {
		c.BandwidthClasses = d.BandwidthClasses
	}
	if len(c.LatencyClassesMs) == 0 {
		c.LatencyClassesMs = d.LatencyClassesMs
	}
	if c.InitialUptimeMax == 0 {
		c.InitialUptimeMax = 240
	}
	if c.DepartureSample == 0 {
		c.DepartureSample = 3
	}
}

// peerChunk is the slab chunk size. Chunks are allocated with this fixed
// capacity and never reallocated, so *Peer pointers handed to callers
// stay valid as the population grows.
const peerChunk = 16384

// Network is the peer population plus the pairwise link model and the
// shared bandwidth reservation ledger.
//
// Peers live in a chunked slab of Peer values rather than a []*Peer:
// at 10⁶–10⁷ peers, one allocation per peer and a pointer-chasing index
// dominate both the allocator and the cache. IDs are dense, so the
// alive index is a flat []int32 instead of a map.
type Network struct {
	cfg   Config
	rng   *xrand.Source
	slab  [][]Peer // chunked storage, indexed by PeerID via peerChunk
	total int      // peers ever created

	alive    []PeerID // alive set, order unspecified
	aliveIdx []int32  // PeerID -> index in alive, -1 when departed

	bw *resource.BandwidthLedger

	departures, arrivals int // cumulative churn counters
}

// New builds a network with cfg.N peers joined at time 0.
func New(cfg Config) (*Network, error) {
	cfg.fillDefaults()
	if cfg.N <= 0 {
		return nil, fmt.Errorf("topology: need a positive number of peers, got %d", cfg.N)
	}
	if cfg.MaxCapacity < cfg.MinCapacity || cfg.MinCapacity < 0 {
		return nil, fmt.Errorf("topology: bad capacity range [%v, %v]", cfg.MinCapacity, cfg.MaxCapacity)
	}
	n := &Network{
		cfg:      cfg,
		rng:      xrand.New(cfg.Seed).SplitLabeled("topology"),
		aliveIdx: make([]int32, 0, cfg.N),
	}
	bw, err := resource.NewBandwidthLedger(func(a, b int) float64 {
		return n.pairClass(a, b, 0, cfg.BandwidthClasses)
	})
	if err != nil {
		return nil, err
	}
	n.bw = bw
	for i := 0; i < cfg.N; i++ {
		p, err := n.Join(0)
		if err != nil {
			return nil, err
		}
		if cfg.InitialUptimeMax > 0 {
			// Pre-age the initial population: the grid was already running.
			p.JoinTime = -n.rng.FloatRange(0, cfg.InitialUptimeMax)
		}
	}
	return n, nil
}

// pairClass deterministically picks one of classes for the unordered pair
// (a, b), salted so bandwidth and latency use independent choices.
func (n *Network) pairClass(a, b int, salt uint64, classes []float64) float64 {
	k := resource.Pair(a, b)
	h := xrand.Mix64(n.cfg.Seed ^ salt ^ xrand.Mix64(uint64(k.Lo)*0x9E3779B97F4A7C15+uint64(k.Hi)))
	return classes[h%uint64(len(classes))]
}

// Bandwidth returns the pairwise bottleneck bandwidth capacity in kbps.
// Symmetric: Bandwidth(a,b) == Bandwidth(b,a).
func (n *Network) Bandwidth(a, b PeerID) float64 {
	return n.pairClass(int(a), int(b), 0, n.cfg.BandwidthClasses)
}

// Latency returns the pairwise latency in ms. Symmetric.
func (n *Network) Latency(a, b PeerID) float64 {
	return n.pairClass(int(a), int(b), 0xD1F1ED, n.cfg.LatencyClassesMs)
}

// BandwidthLedger exposes the shared bandwidth reservation state used by
// session admission control.
func (n *Network) BandwidthLedger() *resource.BandwidthLedger { return n.bw }

// allocPeer reserves the next slab slot and returns its stable address.
func (n *Network) allocPeer() *Peer {
	if len(n.slab) == 0 || len(n.slab[len(n.slab)-1]) == peerChunk {
		n.slab = append(n.slab, make([]Peer, 0, peerChunk))
	}
	last := len(n.slab) - 1
	n.slab[last] = append(n.slab[last], Peer{})
	n.total++
	return &n.slab[last][len(n.slab[last])-1]
}

// peerAt returns the stable address of a peer the network issued.
func (n *Network) peerAt(id PeerID) *Peer {
	return &n.slab[int(id)/peerChunk][int(id)%peerChunk]
}

// Join adds a fresh peer at time now, with a capacity drawn from the
// configured range, and returns it.
func (n *Network) Join(now float64) (*Peer, error) {
	c := n.rng.FloatRange(n.cfg.MinCapacity, n.cfg.MaxCapacity)
	cap := resource.Vec2(c, c)
	ledger, err := resource.NewLedger(cap)
	if err != nil {
		return nil, err
	}
	p := n.allocPeer()
	*p = Peer{
		ID:       PeerID(n.total - 1),
		Capacity: cap,
		Ledger:   ledger,
		JoinTime: now,
		Alive:    true,
	}
	n.aliveIdx = append(n.aliveIdx, int32(len(n.alive)))
	n.alive = append(n.alive, p.ID)
	n.arrivals++
	return p, nil
}

// Depart removes the peer from the alive set at time now. It returns an
// error if the peer is unknown or already departed. The caller (session
// manager) is responsible for failing sessions hosted on the peer.
func (n *Network) Depart(id PeerID, now float64) error {
	p, err := n.Peer(id)
	if err != nil {
		return err
	}
	if !p.Alive {
		return fmt.Errorf("topology: peer %d already departed", id)
	}
	p.Alive = false
	p.DepartTime = now
	// O(1) removal from the alive slice: swap with last.
	i := n.aliveIdx[id]
	last := n.alive[len(n.alive)-1]
	n.alive[i] = last
	n.aliveIdx[last] = i
	n.alive = n.alive[:len(n.alive)-1]
	n.aliveIdx[id] = -1
	n.departures++
	return nil
}

// DepartRandom departs one alive peer chosen as the youngest of
// DepartureSample uniform draws (short-lived peers are the likeliest to
// leave) and returns it; it returns nil when no peer is alive.
func (n *Network) DepartRandom(now float64) *Peer {
	if len(n.alive) == 0 {
		return nil
	}
	k := n.cfg.DepartureSample
	if k < 1 {
		k = 1
	}
	var victim *Peer
	for i := 0; i < k; i++ {
		p := n.peerAt(n.alive[n.rng.Intn(len(n.alive))])
		if victim == nil || p.JoinTime > victim.JoinTime {
			victim = p // later join = younger
		}
	}
	if err := n.Depart(victim.ID, now); err != nil {
		// lint:allow panic-in-library unreachable: the victim was just drawn from the alive set
		panic(err)
	}
	return victim
}

// Peer returns the peer with the given ID.
func (n *Network) Peer(id PeerID) (*Peer, error) {
	if id < 0 || int(id) >= n.total {
		return nil, fmt.Errorf("topology: unknown peer %d", id)
	}
	return n.peerAt(id), nil
}

// MustPeer is Peer for callers holding IDs the network itself issued.
func (n *Network) MustPeer(id PeerID) *Peer {
	p, err := n.Peer(id)
	if err != nil {
		// lint:allow panic-in-library documented Must-variant contract; callers hold network-issued IDs
		panic(err)
	}
	return p
}

// AliveCount returns the number of currently connected peers.
func (n *Network) AliveCount() int { return len(n.alive) }

// TotalCount returns the number of peers ever created.
func (n *Network) TotalCount() int { return n.total }

// Churn returns cumulative (arrivals, departures) including the initial N
// joins.
func (n *Network) Churn() (arrivals, departures int) {
	return n.arrivals, n.departures
}

// AlivePeers calls fn for every currently alive peer. The order is
// unspecified but deterministic for a given history.
func (n *Network) AlivePeers(fn func(*Peer)) {
	for _, id := range n.alive {
		fn(n.peerAt(id))
	}
}

// RandomAliveFrom returns a uniformly chosen alive peer, or nil when
// none. It draws from the caller's random source, so workload
// randomness stays independent of topology randomness.
func (n *Network) RandomAliveFrom(rng *xrand.Source) *Peer {
	if len(n.alive) == 0 {
		return nil
	}
	return n.peerAt(n.alive[rng.Intn(len(n.alive))])
}

// MaxCapacity returns the maximum per-dimension end-system capacity
// (r_max in Definition 3.1's normalization).
func (n *Network) MaxCapacity() float64 { return n.cfg.MaxCapacity }
