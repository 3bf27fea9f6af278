// Package qsa is a Go implementation of the scalable QoS-aware service
// aggregation model for peer-to-peer computing grids of Gu & Nahrstedt
// (HPDC 2002).
//
// The package offers an embeddable virtual P2P grid: add peers, register
// service instances (with their QoS specifications and resource
// footprints) on provider peers, and submit aggregation requests. Each
// request is answered by the paper's two-tier model:
//
//   - on-demand service composition — the QCS algorithm picks the
//     QoS-consistent service path with minimum aggregated resource
//     requirements among all registered candidate instances;
//   - dynamic peer selection — the chosen instances are mapped onto
//     concrete peers hop by hop, using only locally probed performance
//     information and the configurable utility Φ.
//
// Admitted aggregations reserve end-system resources and pairwise
// bandwidth for their whole duration on a deterministic virtual clock
// (minutes); Advance drives the clock. The grid is single-threaded and
// deterministic in its seed.
//
// The experiment harness that regenerates the paper's figures lives in
// the internal packages and is driven by cmd/qsaexp and the benchmarks in
// bench_test.go; this package is the stable public surface.
package qsa

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/probe"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/spec"
	"repro/internal/topology"
)

// PeerID identifies a peer of the grid. IDs are dense and never reused.
type PeerID = int

// Param is one QoS dimension: either a symbolic single value (Value != "")
// or a numeric range [Lo, Hi]. Build with Sym, Range or Point.
type Param struct {
	Name  string
	Value string  // symbolic value; empty for ranges
	Lo    float64 // range bounds (ignored for symbolic params)
	Hi    float64
}

// Sym builds a symbolic single-value parameter, e.g. Sym("format", "MPEG").
func Sym(name, value string) Param { return Param{Name: name, Value: value} }

// Range builds a numeric range parameter, e.g. Range("fps", 10, 30).
func Range(name string, lo, hi float64) Param { return Param{Name: name, Lo: lo, Hi: hi} }

// Point builds a single numeric value parameter (a degenerate range).
func Point(name string, v float64) Param { return Param{Name: name, Lo: v, Hi: v} }

// QoS is a vector of QoS parameters, one per dimension.
type QoS []Param

func (q QoS) toInternal() (qos.Vector, error) {
	params := make([]qos.Param, len(q))
	for i, p := range q {
		if p.Value != "" {
			params[i] = qos.Sym(p.Name, p.Value)
		} else {
			if p.Hi < p.Lo {
				return nil, fmt.Errorf("qsa: parameter %q has inverted range [%v, %v]", p.Name, p.Lo, p.Hi)
			}
			params[i] = qos.Range(p.Name, p.Lo, p.Hi)
		}
	}
	return qos.NewVector(params...)
}

// Instance describes one service instance: a concrete implementation of an
// abstract service, with its QoS specification co-located as the paper
// assumes.
type Instance struct {
	// ID uniquely names the instance across the grid (e.g. "player/real").
	ID string
	// Service is the abstract service name the instance implements.
	Service string
	// Input and Output are the instance's Qin and Qout QoS vectors.
	Input, Output QoS
	// CPU and Memory are the end-system units one session of this
	// instance reserves on its host peer.
	CPU, Memory float64
	// Kbps is the network bandwidth one session reserves on the edge
	// carrying this instance's output.
	Kbps float64
}

func (in Instance) toInternal() (*service.Instance, error) {
	qin, err := in.Input.toInternal()
	if err != nil {
		return nil, err
	}
	qout, err := in.Output.toInternal()
	if err != nil {
		return nil, err
	}
	si := &service.Instance{
		ID:      in.ID,
		Service: service.Name(in.Service),
		Qin:     qin,
		Qout:    qout,
		R:       resource.Vec2(in.CPU, in.Memory),
		OutKbps: in.Kbps,
	}
	return si, si.Validate()
}

// Request is one user request for a distributed application delivery.
type Request struct {
	// Path is the abstract service path in aggregation-flow order, data
	// source first (e.g. video server → translator → player).
	Path []string
	// MinQoS is the user's end-to-end QoS requirement; the final
	// component's output must satisfy it.
	MinQoS QoS
	// Duration is the session duration in minutes.
	Duration float64
}

// Plan is an admitted service aggregation: which instance runs where.
type Plan struct {
	// SessionID identifies the admitted session; query it with Status.
	SessionID uint64
	// Instances are the chosen instance IDs in aggregation-flow order.
	Instances []string
	// Peers are the provisioning peers, aligned with Instances.
	Peers []PeerID
	// Cost is the aggregated Definition 3.1 cost of the service path.
	Cost float64
}

// SessionState reports the lifecycle phase of an admitted aggregation.
type SessionState string

// Session lifecycle phases.
const (
	SessionActive    SessionState = "active"
	SessionCompleted SessionState = "completed"
	SessionFailed    SessionState = "failed"
)

// Config parameterizes a Grid. The zero value gives the paper's defaults.
type Config struct {
	// Seed drives all grid randomness; runs with equal seeds replay
	// identically. Default 1.
	Seed uint64
	// ProbeBudget is M, the maximum number of neighbors any peer probes
	// (paper: 100).
	ProbeBudget int
	// ProbeTTL and ProbePeriod control neighbor soft state and probe
	// caching, in minutes (paper defaults: 10 and 1).
	ProbeTTL, ProbePeriod float64
	// RegistryTTL is the soft-state lifetime of a provider registration in
	// minutes (default 10). Providers re-register via Provide.
	RegistryTTL float64
	// Weights are the shared importance weights (w and ω of Definitions
	// 3.1 and eq. 4) for [cpu, memory, bandwidth]; must sum to 1. Default
	// uniform.
	Weights []float64
	// EnableRecovery re-selects a replacement peer when a provisioning
	// peer departs mid-session (the paper's future-work extension).
	EnableRecovery bool
}

// Grid is an embeddable QoS-aware P2P service grid on a virtual clock.
// It is not safe for concurrent use; drive it from one goroutine.
type Grid struct {
	engine *eventsim.Engine
	net    *topology.Network
	agg    *core.Aggregator

	instances map[string]*service.Instance
	sessions  map[uint64]*session.Session
}

// New creates an empty grid (no peers yet) from cfg.
func New(cfg Config) (*Grid, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	selCfg := selection.DefaultConfig()
	if len(cfg.Weights) > 0 {
		selCfg.Weights = cfg.Weights
	}

	g := &Grid{
		engine:    eventsim.New(),
		instances: make(map[string]*service.Instance),
		sessions:  make(map[uint64]*session.Session),
	}
	// topology.New requires N ≥ 1, so the grid keeps peer 0 as an internal
	// anchor that never hosts anything; user-facing peers start at ID 1.
	topoCfg := topology.Default(cfg.Seed, 1)
	topoCfg.InitialUptimeMax = -1 // explicit joins define uptime
	var err error
	if g.net, err = topology.New(topoCfg); err != nil {
		return nil, err
	}
	if g.agg, err = core.New(core.Config{
		Seed:      cfg.Seed,
		Registry:  registry.Config{TTL: cfg.RegistryTTL},
		Probe:     probe.Config{M: cfg.ProbeBudget, TTL: cfg.ProbeTTL, Period: cfg.ProbePeriod},
		Selection: selCfg,
		Compose:   compose.Config{Weights: selCfg.Weights},
		Recovery:  cfg.EnableRecovery,
	}, g.net, g.engine); err != nil {
		return nil, err
	}
	if err := g.agg.Registry.AddPeer(0); err != nil {
		return nil, err
	}
	return g, nil
}

// peer returns peer p, refusing the grid's internal anchor, peer 0 (see
// New), to the operations that act on one peer.
func (g *Grid) peer(p PeerID) (*topology.Peer, error) {
	if p == 0 {
		return nil, errors.New("qsa: peer 0 is the grid's internal anchor")
	}
	return g.net.Peer(topology.PeerID(p))
}

// Now returns the current virtual time in minutes.
func (g *Grid) Now() float64 { return g.engine.Now() }

// Advance runs the virtual clock forward by the given number of minutes,
// firing session completions and other scheduled work.
func (g *Grid) Advance(minutes float64) {
	if minutes < 0 {
		// lint:allow panic-in-library the virtual clock cannot run backwards; negative Advance is caller error, not a data condition
		panic("qsa: negative Advance")
	}
	g.engine.RunUntil(g.engine.Now() + minutes)
}

// AddPeer joins a peer with the given end-system capacity (abstract units;
// the paper's range is 100 for a laptop to 1000 for a server) and returns
// its ID. Both capacity dimensions must be non-negative.
func (g *Grid) AddPeer(cpu, memory float64) (PeerID, error) {
	if cpu < 0 || memory < 0 {
		return -1, fmt.Errorf("qsa: negative capacity")
	}
	p, err := g.net.Join(g.engine.Now())
	if err != nil {
		return -1, err
	}
	// Override the sampled capacity with the caller's explicit one.
	ledger, err := resource.NewLedger(resource.Vec2(cpu, memory))
	if err != nil {
		return -1, err
	}
	p.Capacity = resource.Vec2(cpu, memory)
	p.Ledger = ledger
	if err := g.agg.Registry.AddPeer(p.ID); err != nil {
		return -1, err
	}
	return int(p.ID), nil
}

// Depart removes a peer abruptly, failing (or, with recovery enabled,
// repairing) the sessions it provisions — the paper's topological
// variation event.
func (g *Grid) Depart(p PeerID) error {
	if _, err := g.peer(p); err != nil {
		return err
	}
	now := g.engine.Now()
	if err := g.net.Depart(topology.PeerID(p), now); err != nil {
		return err
	}
	return g.agg.Depart(topology.PeerID(p), now)
}

// Uptime returns how long the peer has been connected, in minutes.
func (g *Grid) Uptime(p PeerID) (float64, error) {
	peer, err := g.peer(p)
	if err != nil {
		return 0, err
	}
	return peer.Uptime(g.engine.Now()), nil
}

// Available returns the peer's currently unreserved capacity.
func (g *Grid) Available(p PeerID) (cpu, memory float64, err error) {
	peer, err := g.peer(p)
	if err != nil {
		return 0, 0, err
	}
	av := peer.Ledger.Available()
	return av[resource.CPU], av[resource.Memory], nil
}

// Bandwidth returns the bottleneck bandwidth capacity between two peers in
// kbps (drawn from the paper's {10 Mbps, 500 kbps, 100 kbps, 56 kbps}
// classes, stable per pair).
func (g *Grid) Bandwidth(a, b PeerID) float64 {
	return g.net.Bandwidth(topology.PeerID(a), topology.PeerID(b))
}

// Provide registers (or soft-state-refreshes) peer p as a provider of the
// instance. Instances with the same ID must carry the same specification.
// Registrations expire after the registry TTL; long-lived providers should
// re-Provide periodically, as the paper's soft-state protocol prescribes.
func (g *Grid) Provide(p PeerID, in Instance) error {
	if _, err := g.peer(p); err != nil {
		return err
	}
	si, err := in.toInternal()
	if err != nil {
		return err
	}
	if prev, ok := g.instances[in.ID]; ok {
		si = prev // one canonical object per instance ID
	} else {
		g.instances[in.ID] = si
	}
	return g.agg.Registry.Register(topology.PeerID(p), si, topology.PeerID(p), g.engine.Now())
}

// Withdraw removes peer p's registration for the instance immediately.
func (g *Grid) Withdraw(p PeerID, instanceID string) error {
	if _, err := g.peer(p); err != nil {
		return err
	}
	si, ok := g.instances[instanceID]
	if !ok {
		return fmt.Errorf("qsa: unknown instance %q", instanceID)
	}
	return g.agg.Registry.Unregister(topology.PeerID(p), si, topology.PeerID(p))
}

// Aggregate runs the full two-tier model for a user request issued by peer
// user: discover candidates via the DHT, compose the QoS-consistent
// resource-shortest path, select peers hop by hop, and admit the session.
// On success the returned plan's session is active until its duration
// elapses (drive the clock with Advance).
func (g *Grid) Aggregate(user PeerID, req Request) (*Plan, error) {
	if _, err := g.peer(user); err != nil {
		return nil, err
	}
	if len(req.Path) == 0 {
		return nil, fmt.Errorf("qsa: empty service path")
	}
	if req.Duration <= 0 {
		return nil, fmt.Errorf("qsa: non-positive duration")
	}
	userQoS, err := req.MinQoS.toInternal()
	if err != nil {
		return nil, err
	}
	path := make([]service.Name, len(req.Path))
	for i, n := range req.Path {
		path[i] = service.Name(n)
	}
	sreq := &service.Request{
		App:      &service.Application{ID: "adhoc", Path: path},
		Level:    qos.Average, // the explicit MinQoS vector carries the requirement
		UserQoS:  userQoS,
		Duration: req.Duration,
	}
	sess, err := g.agg.Aggregate(topology.PeerID(user), sreq, g.engine.Now(), core.StrategyQSA)
	if err != nil {
		return nil, err
	}
	g.sessions[sess.ID] = sess

	plan := &Plan{SessionID: sess.ID, Cost: g.agg.ComposeConfig.PathCost(sess.Instances)}
	for k, inst := range sess.Instances {
		plan.Instances = append(plan.Instances, inst.ID)
		plan.Peers = append(plan.Peers, int(sess.Peers[k]))
	}
	return plan, nil
}

// Status reports the lifecycle state of an admitted session.
func (g *Grid) Status(sessionID uint64) (SessionState, error) {
	s, ok := g.sessions[sessionID]
	if !ok {
		return "", fmt.Errorf("qsa: unknown session %d", sessionID)
	}
	switch s.State {
	case session.Active:
		return SessionActive, nil
	case session.Completed:
		return SessionCompleted, nil
	default:
		return SessionFailed, nil
	}
}

// Peers returns the number of currently connected peers (excluding the
// grid's internal anchor).
func (g *Grid) Peers() int { return g.net.AliveCount() - 1 }

// Stats is a snapshot of the grid's internal activity counters.
type Stats struct {
	// Sessions admitted / completed / failed / recovered so far.
	Admitted, Completed, Failed, Recoveries uint64
	// Probes is the number of peer probes taken (the paper bounds probing
	// to M neighbors per peer).
	Probes uint64
	// InformedSelections and FallbackSelections count Φ-based vs
	// random-fallback peer selection steps.
	InformedSelections, FallbackSelections uint64
	// Lookups and LookupHops count DHT queries and their routing cost.
	Lookups, LookupHops uint64
}

// ParseSpec reads instance and application definitions in the textual QSA
// specification language (see internal/spec and cmd/qsaspec; the paper's
// §3.1 co-located QoS specifications) and converts them to public types:
// instances ready for Provide, and application paths (by application ID)
// ready for Request.Path.
func ParseSpec(r io.Reader) ([]Instance, map[string][]string, error) {
	parsed, err := spec.Parse(r)
	if err != nil {
		return nil, nil, err
	}
	toQoS := func(v qos.Vector) QoS {
		out := make(QoS, 0, len(v))
		for _, p := range v {
			if p.Symbolic() {
				out = append(out, Sym(p.Name, p.Sym))
			} else {
				out = append(out, Range(p.Name, p.Lo, p.Hi))
			}
		}
		return out
	}
	instances := make([]Instance, 0, len(parsed.Instances))
	for _, in := range parsed.Instances {
		instances = append(instances, Instance{
			ID:      in.ID,
			Service: string(in.Service),
			Input:   toQoS(in.Qin),
			Output:  toQoS(in.Qout),
			CPU:     in.R[resource.CPU],
			Memory:  in.R[resource.Memory],
			Kbps:    in.OutKbps,
		})
	}
	apps := make(map[string][]string, len(parsed.Applications))
	for _, app := range parsed.Applications {
		path := make([]string, len(app.Path))
		for i, n := range app.Path {
			path[i] = string(n)
		}
		apps[app.ID] = path
	}
	return instances, apps, nil
}

// Stats returns a snapshot of the grid's activity counters.
func (g *Grid) Stats() Stats {
	sc := g.agg.Sessions.Counters()
	ps := g.agg.Probes.Stats()
	ss := g.agg.PhiSelector.Stats()
	ls := g.agg.Registry.Stats()
	return Stats{
		Admitted:           sc.Admitted,
		Completed:          sc.Completed,
		Failed:             sc.Failed,
		Recoveries:         sc.Recoveries,
		Probes:             ps.Probes,
		InformedSelections: ss.Informed,
		FallbackSelections: ss.Fallbacks,
		Lookups:            ls.Lookups,
		LookupHops:         ls.TotalHops,
	}
}
