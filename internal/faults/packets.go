package faults

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/netproto"
	"repro/internal/xrand"
)

// This file extends the fault plane from per-dial to per-datagram
// semantics, for the UDP transport (netproto.PacketFilter): seeded
// drop, duplication and reordering of individual packets, layered
// under the same Crash/Cut script actions as the dial plane. The
// determinism contract is identical: the verdict for the n-th packet
// on a link is a pure function of (seed, src, dst, n), so a seeded
// chaos run replays its packet transcript bit-for-bit.

// PacketConfig parameterizes the datagram fault layer of a Fabric.
type PacketConfig struct {
	// DropRate is the per-packet probability, in [0,1], that a datagram
	// is discarded before it reaches the socket.
	DropRate float64
	// DupRate is the per-packet probability that a datagram is written
	// twice — the duplicate-delivery case the server's dedup table must
	// absorb without re-executing a request.
	DupRate float64
	// ReorderRate is the per-packet probability that a datagram is
	// delayed by ReorderDelay, letting packets sent after it overtake.
	ReorderRate float64
	// ReorderDelay is the delay applied to reordered packets.
	// Default 2 ms.
	ReorderDelay time.Duration
}

// Validate rejects probabilities outside [0,1] and negative delays.
func (c PacketConfig) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"DropRate", c.DropRate}, {"DupRate", c.DupRate}, {"ReorderRate", c.ReorderRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: packet %s %v outside [0,1]", r.name, r.v)
		}
	}
	if c.ReorderDelay < 0 {
		return fmt.Errorf("faults: negative ReorderDelay")
	}
	return nil
}

func (c *PacketConfig) fillDefaults() {
	if c.ReorderDelay == 0 {
		c.ReorderDelay = 2 * time.Millisecond
	}
}

// PacketStats counts what the fault plane did to one link's packets.
type PacketStats struct {
	Sent, Dropped, Duplicated, Delayed uint64
}

// packetPlane is the shared per-datagram state, attached lazily to a
// Fabric by EnablePackets.
type packetPlane struct {
	cfg PacketConfig

	mu       sync.Mutex
	attempts map[link]uint64
	stats    map[link]*PacketStats
}

// EnablePackets switches on the datagram fault layer with cfg. Call it
// once, before handing out PacketNode filters.
func (f *Fabric) EnablePackets(cfg PacketConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.fillDefaults()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.packets = &packetPlane{
		cfg:      cfg,
		attempts: make(map[link]uint64),
		stats:    make(map[link]*PacketStats),
	}
	return nil
}

// PacketVerdict reports the seeded decision for the n-th packet
// (1-based) on the src→dst link: a pure function of (Seed, src, dst,
// n). Script actions (Crash/Cut) are not reflected — this is the
// replayable probabilistic layer only.
func (f *Fabric) PacketVerdict(src, dst string, n uint64) netproto.PacketDecision {
	f.mu.Lock()
	pp := f.packets
	f.mu.Unlock()
	if pp == nil {
		return netproto.PacketDecision{}
	}
	h := verdictHash(f.cfg.Seed^packetSalt, src, dst, n)
	var d netproto.PacketDecision
	if pp.cfg.DropRate > 0 && unit(h) < pp.cfg.DropRate {
		d.Drop = true
		return d
	}
	if pp.cfg.DupRate > 0 && unit(xrand.Mix64(h^dupSalt)) < pp.cfg.DupRate {
		d.Duplicate = true
	}
	if pp.cfg.ReorderRate > 0 && unit(xrand.Mix64(h^reorderSalt)) < pp.cfg.ReorderRate {
		d.Delay = pp.cfg.ReorderDelay
	}
	return d
}

// PacketStatsFor returns what happened to the src→dst packet stream so
// far (zero stats for an untouched link).
func (f *Fabric) PacketStatsFor(src, dst string) PacketStats {
	f.mu.Lock()
	pp := f.packets
	f.mu.Unlock()
	if pp == nil {
		return PacketStats{}
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if s := pp.stats[link{src, dst}]; s != nil {
		return *s
	}
	return PacketStats{}
}

// PacketStatsFrom sums the stats of every link whose source is src —
// requests, acks and replies alike, to registered peers and to client
// endpoints (one per client transport).
func (f *Fabric) PacketStatsFrom(src string) PacketStats {
	f.mu.Lock()
	pp := f.packets
	f.mu.Unlock()
	var sum PacketStats
	if pp == nil {
		return sum
	}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	for l, s := range pp.stats {
		if l.src == src {
			sum.Sent += s.Sent
			sum.Dropped += s.Dropped
			sum.Duplicated += s.Duplicated
			sum.Delayed += s.Delayed
		}
	}
	return sum
}

// admitPacket decides the fate of one outgoing datagram from src to
// the peer at dst (a registered listen address, or the client
// transport's endpoint address for server→client traffic).
func (f *Fabric) admitPacket(src, dst string) netproto.PacketDecision {
	f.mu.Lock()
	pp := f.packets
	if name, ok := f.names[dst]; ok {
		dst = name
	}
	l := link{src, dst}
	crashed := f.crashed[src] || f.crashed[dst]
	cut := f.cut[l]
	f.mu.Unlock()
	if pp == nil {
		return netproto.PacketDecision{}
	}
	pp.mu.Lock()
	pp.attempts[l]++
	n := pp.attempts[l]
	st := pp.stats[l]
	if st == nil {
		st = &PacketStats{}
		pp.stats[l] = st
	}
	st.Sent++
	pp.mu.Unlock()
	var d netproto.PacketDecision
	if crashed || cut {
		d.Drop = true
	} else {
		d = f.PacketVerdict(src, dst, n)
	}
	pp.mu.Lock()
	if d.Drop {
		st.Dropped++
	}
	if d.Duplicate {
		st.Duplicated++
	}
	if d.Delay > 0 {
		st.Delayed++
	}
	pp.mu.Unlock()
	return d
}

// packetNode is one peer's datagram-level view of the fabric.
type packetNode struct {
	f    *Fabric
	name string
}

// PacketNode returns the PacketFilter for the peer with the given
// logical name. Wire it into netproto.Config.Wire.PacketFilter before
// Start, and Register the started peer's address as for Node.
func (f *Fabric) PacketNode(name string) netproto.PacketFilter {
	return &packetNode{f: f, name: name}
}

// Packet implements netproto.PacketFilter.
func (p *packetNode) Packet(dst string, size int) netproto.PacketDecision {
	return p.f.admitPacket(p.name, dst)
}

const (
	packetSalt  = 0xC3D2E1F00F1E2D3C
	dupSalt     = 0x5A5A5A5A5A5A5A5A
	reorderSalt = 0x3C3C3C3C3C3C3C3C
)
