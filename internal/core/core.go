// Package core integrates the two tiers of the QSA model into the
// end-to-end aggregation pipeline of the paper's §3.2:
//
//	acquire request → discover candidate instances (DHT lookup) →
//	compose a QoS-consistent service path → select provisioning peers →
//	admit the session (reserve resources and bandwidth).
//
// It also implements the runtime recovery extension (paper §6 future
// work): when a provisioning peer departs, the failed component is
// re-discovered and re-selected from its downstream neighbor.
//
// The same engine runs the paper's three evaluated strategies and the
// ablation hybrids; Strategy picks the composer and the selector
// independently. Both the simulator (internal/sim) and the public façade
// (package qsa) delegate here, so the pipeline exists exactly once.
package core

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/compose"
	"repro/internal/eventsim"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/registry"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// ComposeKind selects the composition-tier algorithm.
type ComposeKind int

// Composition algorithms.
const (
	// ComposeQCS is the paper's QoS-consistent shortest composition.
	ComposeQCS ComposeKind = iota
	// ComposeRandom picks a random QoS-consistent path.
	ComposeRandom
	// ComposeFixed always picks the same QoS-consistent path.
	ComposeFixed
)

// SelectKind selects the peer-selection-tier algorithm.
type SelectKind int

// Peer selection algorithms.
const (
	// SelectPhi is the paper's Φ-based dynamic peer selection.
	SelectPhi SelectKind = iota
	// SelectRandom picks uniform random providers.
	SelectRandom
	// SelectFixed picks the dedicated (lowest-ID) provider.
	SelectFixed
)

// Strategy pairs a composer with a selector.
type Strategy struct {
	Compose ComposeKind
	Select  SelectKind

	// Retries is the number of recomposition attempts after a selection or
	// admission failure: the failed path's instances are excluded and the
	// composer runs again over the remaining candidates. This serves the
	// paper's efficiency goal (§3: "utilize resource pools ... so that it
	// can admit as many user requests as possible") — when the cheapest
	// instances' provider pools saturate, QSA falls over to the
	// next-cheapest tier instead of rejecting the request. 0 disables
	// (the paper-literal single-shot behaviour).
	Retries int
}

// The paper's three evaluated strategies. QSA retries twice; the
// baselines are single-shot (neither random nor fixed has a notion of a
// "next best" path).
var (
	StrategyQSA    = Strategy{Compose: ComposeQCS, Select: SelectPhi, Retries: 2}
	StrategyRandom = Strategy{Compose: ComposeRandom, Select: SelectRandom}
	StrategyFixed  = Strategy{Compose: ComposeFixed, Select: SelectFixed}
)

// Stage identifies where in the pipeline a request failed.
type Stage int

// Pipeline stages, in order.
const (
	// StageNone means the request was admitted.
	StageNone Stage = iota
	// StageDiscovery means some abstract service had no candidates.
	StageDiscovery
	// StageCompose means no QoS-consistent path exists.
	StageCompose
	// StageSelection means no peer could be selected at some hop.
	StageSelection
	// StageAdmission means a reservation was rejected.
	StageAdmission
)

// stageNames are the stages' String forms: the obs trace vocabulary.
var stageNames = [...]string{"admitted", obs.StageDiscovery, obs.StageCompose, obs.StageSelection, obs.StageAdmission}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if s >= 0 && int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// ErrAggregation wraps pipeline failures with their stage.
type ErrAggregation struct {
	Stage Stage
	Err   error
}

// Error implements the error interface.
func (e *ErrAggregation) Error() string {
	return fmt.Sprintf("core: %v failed: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *ErrAggregation) Unwrap() error { return e.Err }

// StageOf extracts the failure stage from an aggregation error; StageNone
// for nil or foreign errors.
func StageOf(err error) Stage {
	var ea *ErrAggregation
	if errors.As(err, &ea) {
		return ea.Stage
	}
	return StageNone
}

// aggScratch is Aggregate's working memory — the discovery, per-hop
// provider buffers, the attempt loop and the grid — recycled across
// calls, so the steady-state path makes no allocations of its own.
type aggScratch struct {
	disc      Discovery
	providers [][]topology.PeerID
	pipeline  Pipeline
	grid      memGrid
}

// Aggregator is the integrated QSA engine over a grid's subsystems — the
// in-memory Grid the attempt loop runs over in the simulator and the
// public façade, both built by New. Like the simulation driving it, it
// is single-goroutine: scratch buffers, RNG and tracer are unsynchronized.
type Aggregator struct {
	Registry *registry.Registry
	Sessions *session.Manager
	Probes   *probe.Manager // the tables the Φ selector probes into

	// PhiSelector performs informed Φ selection (and recovery).
	PhiSelector *selection.Selector
	// RandomSelector and FixedSelector are the baseline selectors.
	RandomSelector *selection.Random
	FixedSelector  *selection.Fixed

	// ComposeConfig carries the Definition 3.1 weights.
	ComposeConfig compose.Config

	// RNG drives the random composer.
	RNG *xrand.Source

	// ReqID, Spans and ReqSpan are the Pipeline's Req, Spans and Root,
	// set by the caller before each request. Only the attempt loop mints
	// spans, so both entry points mint the same IDs; in virtual time
	// they carry structure, not latency (DESIGN §8). SelectSpan is the
	// current attempt's selection stage span while the selector runs,
	// for the caller's hop reports to be stamped with.
	ReqID      uint64
	Spans      *obs.Spans
	ReqSpan    obs.SpanContext
	SelectSpan obs.SpanContext

	sc aggScratch
}

// Config assembles the in-memory grid New builds. Seed derives the ring
// and the streams "selection" (Φ fallback), "randsel" and "composerand";
// Selection defaults to selection.DefaultConfig when it has no weights.
type Config struct {
	Seed      uint64
	Registry  registry.Config
	Probe     probe.Config
	Selection selection.Config
	Compose   compose.Config

	DisableCaches bool          // no registry lookup cache, no compatibility memo
	Recovery      bool          // Recover repairs sessions whose host departs
	Metrics       *obs.Registry // when non-nil, every subsystem counts into it
}

// New builds the in-memory grid over the caller's network and engine:
// registry, probe and session managers, the three selectors and the
// composer's working memory. It joins no peer.
func New(cfg Config, net *topology.Network, engine *eventsim.Engine) (*Aggregator, error) {
	if cfg.Registry.TTL < 0 {
		return nil, fmt.Errorf("core: negative registry TTL %g", cfg.Registry.TTL)
	}
	if err := cfg.Compose.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Selection.Weights) == 0 {
		cfg.Selection = selection.DefaultConfig()
	}
	root := xrand.New(cfg.Seed)
	probes := probe.NewManager(cfg.Probe, net)
	phi, err := selection.New(cfg.Selection, probes, root.SplitLabeled("selection"))
	if err != nil {
		return nil, err
	}
	cfg.Registry.DisableCache = cfg.Registry.DisableCache || cfg.DisableCaches
	cfg.Compose.Scratch = compose.NewScratch()
	if !cfg.DisableCaches {
		cfg.Compose.Memo = compose.NewMemo()
	}
	a := &Aggregator{
		Registry:       registry.New(cfg.Registry, cfg.Seed),
		Probes:         probes,
		Sessions:       session.NewManager(net, engine),
		PhiSelector:    phi,
		RandomSelector: selection.NewRandom(root.SplitLabeled("randsel")),
		FixedSelector:  selection.NewFixed(),
		RNG:            root.SplitLabeled("composerand"),
	}
	// Wired bundles replace the private ones before the first request.
	if m := cfg.Metrics; m != nil {
		cfg.Compose.Obs = obs.NewComposeCounters(m)
		if cfg.Compose.Memo != nil {
			cfg.Compose.Memo.Obs = obs.NewMemoCounters(m)
		}
		probes.Obs = obs.NewProbeCounters(m)
		a.Sessions.Obs = obs.NewSessionCounters(m)
		a.Sessions.Durations = m.Latency("session.duration_minutes")
		a.Sessions.ActiveGauge = m.Gauge("session.active")
		phi.Counters = obs.NewSelectionCounters(m)
		a.Registry.Obs = obs.NewDiscoveryCounters(m)
	}
	a.ComposeConfig = cfg.Compose
	if cfg.Recovery {
		a.Sessions.Recovery = a.Recover
	}
	return a, nil
}

// Depart propagates peer p's abrupt departure at now, once the network
// has marked it gone: sessions, then probes, then the ring node.
func (a *Aggregator) Depart(p topology.PeerID, now float64) error {
	a.Sessions.PeerDeparted(p, now)
	a.Probes.DropPeer(p)
	return a.Registry.RemovePeer(p, false)
}

// EventStage is the trace stage a pipeline error is attributed to —
// exported so event consumers and RequestStats bookkeeping agree on the
// mapping (every non-pipeline admission error is "admission").
func EventStage(err error) string {
	if s := StageOf(err); s != StageNone {
		return s.String()
	}
	return obs.StageAdmission
}

// Discovery is the result of looking up every service of an abstract path.
type Discovery struct {
	Layers [][]*service.Instance

	// byInst indexes every discovered entry by its instance. Instances
	// are registry-unique, so one flat index covers all layers.
	byInst map[*service.Instance]*registry.InstanceEntry
}

// lookupInto runs the lookups into d, reusing whatever buffers d already
// holds. It stops after the first service without candidates, leaving
// that layer empty for the attempt loop to report.
func (a *Aggregator) lookupInto(d *Discovery, user topology.PeerID, path []service.Name, now float64) error {
	for len(d.Layers) < len(path) {
		d.Layers = append(d.Layers, nil)
	}
	d.Layers = d.Layers[:len(path)]
	if d.byInst == nil {
		d.byInst = make(map[*service.Instance]*registry.InstanceEntry)
	} else {
		clear(d.byInst)
	}
	for k, name := range path {
		es, _, err := a.Registry.Lookup(user, name, now)
		if err != nil {
			return err
		}
		layer := d.Layers[k][:0]
		for _, e := range es {
			layer = append(layer, e.Inst)
			d.byInst[e.Inst] = e
		}
		d.Layers[k] = layer
		if len(layer) == 0 {
			return nil
		}
	}
	return nil
}

// Providers appends to dst the live provider peers of the chosen instance
// at layer k of the discovery and returns dst.
func (d *Discovery) Providers(k int, inst *service.Instance, now float64, dst []topology.PeerID) []topology.PeerID {
	if e, ok := d.byInst[inst]; ok {
		return e.Providers(now, dst)
	}
	return dst
}

// memGrid is the in-memory Grid of one request: the registry answers
// discovery, the strategy's selector picks the peers, and the session
// manager admits. Aggregate reuses one in the aggregator's scratch, and
// between requests Recover runs over it as a session's RecoveryGrid.
type memGrid struct {
	a     *Aggregator
	user  topology.PeerID
	req   *service.Request
	now   float64
	strat Strategy
	disc  *Discovery
	peers []topology.PeerID
	sess  *session.Session
}

// Discover validates the request and looks its services up.
func (g *memGrid) Discover() ([][]*service.Instance, error) {
	if err := g.req.Validate(); err != nil {
		return nil, err
	}
	if err := g.a.lookupInto(g.disc, g.user, g.req.App.Path, g.now); err != nil {
		return nil, err
	}
	return g.disc.Layers, nil
}

// Select resolves each instance's live providers from the discovery and
// runs the strategy's selector over them.
func (g *memGrid) Select(path []*service.Instance, sel obs.SpanContext) error {
	a := g.a
	a.SelectSpan = sel
	for len(a.sc.providers) < len(path) {
		a.sc.providers = append(a.sc.providers, nil)
	}
	providers := a.sc.providers[:len(path)]
	for k, inst := range path {
		providers[k] = g.disc.Providers(k, inst, g.now, providers[k][:0])
		if len(providers[k]) == 0 {
			return fmt.Errorf("no live providers for %s", inst.ID)
		}
	}
	var ok bool
	dur := g.req.Duration
	switch g.strat.Select {
	case SelectPhi:
		g.peers, ok = a.PhiSelector.SelectPath(g.user, path, providers, dur, g.now)
	case SelectRandom:
		g.peers, ok = a.RandomSelector.SelectPath(g.user, path, providers, dur, g.now)
	case SelectFixed:
		g.peers, ok = a.FixedSelector.SelectPath(g.user, path, providers, dur, g.now)
	}
	if !ok {
		return errors.New("no selectable peer")
	}
	return nil
}

// Admit opens the session on the selected peers.
func (g *memGrid) Admit(path []*service.Instance, _ obs.SpanContext) error {
	sess, err := g.a.Sessions.Admit(g.user, path, g.peers, g.req.Duration)
	if err != nil {
		return err
	}
	g.sess = sess
	return nil
}

// Names renders the admitted session's ID and peers.
func (g *memGrid) Names() (string, []string) {
	hosts := make([]string, len(g.peers))
	for i, p := range g.peers {
		hosts[i] = strconv.Itoa(int(p))
	}
	return strconv.FormatUint(g.sess.ID, 10), hosts
}

// Stage does nothing: simulated stages take no time.
func (g *memGrid) Stage(Stage, bool) {}

// Aggregate runs the full pipeline for one request. On success it returns
// the admitted session; on failure, an *ErrAggregation carrying the stage
// of the final attempt.
func (a *Aggregator) Aggregate(user topology.PeerID, req *service.Request,
	now float64, strat Strategy) (*session.Session, error) {

	return a.run(user, req, now, strat, a.RNG, &a.sc.disc, nil)
}

// run readies the aggregator's reusable attempt loop and in-memory grid
// for one request and runs them, from scratch or from prep.
func (a *Aggregator) run(user topology.PeerID, req *service.Request, now float64,
	strat Strategy, rng *xrand.Source, disc *Discovery, prep *PreparedAggregation) (*session.Session, error) {

	pl, g := &a.sc.pipeline, &a.sc.grid
	pl.Strategy, pl.Compose, pl.RNG = strat, a.ComposeConfig, rng
	pl.Spans, pl.Req, pl.Root = a.Spans, a.ReqID, a.ReqSpan
	*g = memGrid{a: a, user: user, req: req, now: now, strat: strat, disc: disc}
	if _, err := pl.run(g, req, prep); err != nil {
		return nil, err
	}
	return g.sess, nil
}

// PreparedAggregation carries one request through the pipeline in
// three separately callable stages: PrepareDiscovery, PrepareCompose and
// AggregateFinish, which together do exactly what Aggregate does. The
// benchmark ledger (benchmark/) times each layer through them.
type PreparedAggregation struct {
	// Disc is the discovery result, owned by this request (not the
	// aggregator's scratch).
	Disc *Discovery
	// Err is a validation or discovery failure; when set the other
	// fields are empty and AggregateFinish returns it unchanged.
	Err error
	// Path and ComposeErr are the first composition outcome; meaningful
	// only when Composed is true.
	Path       *compose.Path
	ComposeErr error
	Composed   bool
}

// PrepareDiscovery runs the validation and discovery head of the
// pipeline for one request, charging the registry lookups. The result is
// self-contained — it does not alias the aggregator's scratch buffers.
func (a *Aggregator) PrepareDiscovery(user topology.PeerID, req *service.Request,
	now float64) *PreparedAggregation {

	p := &PreparedAggregation{}
	g := &memGrid{a: a, user: user, req: req, now: now, disc: &Discovery{}}
	if _, err := discoverLayers(g, req); err != nil {
		p.Err = err
		return p
	}
	p.Disc = g.disc
	return p
}

// PrepareCompose runs the first composition attempt over a prepared
// discovery with rng. A prepared request that failed discovery is left
// untouched.
func (a *Aggregator) PrepareCompose(p *PreparedAggregation, req *service.Request,
	strat Strategy, rng *xrand.Source) {

	if p.Err != nil || p.Disc == nil {
		return
	}
	pl := Pipeline{Strategy: strat, Compose: a.ComposeConfig, RNG: rng}
	p.Path, p.ComposeErr = pl.compose(p.Disc.Layers, req.UserQoS)
	p.Composed = true
}

// AggregateFinish finishes a prepared request: it consumes the prepared
// discovery and first composition (composing now if PrepareCompose was
// skipped) and continues through selection, admission, and the retry
// loop with rng. It emits the discovery span and every later trace event
// Aggregate would, in the same order, so the prepared path is
// indistinguishable in telemetry.
func (a *Aggregator) AggregateFinish(p *PreparedAggregation, user topology.PeerID,
	req *service.Request, now float64, strat Strategy, rng *xrand.Source) (*session.Session, error) {

	if p.Err == nil && !p.Composed {
		a.PrepareCompose(p, req, strat, rng)
	}
	return a.run(user, req, now, strat, rng, p.Disc, p)
}

// Recover re-selects a replacement peer for component k of a session whose
// host departed — the session.RecoveryFunc implementation: the shared
// recovery step over the in-memory grid. The session manager moves the
// reservations.
func (a *Aggregator) Recover(s *session.Session, k int, now float64) (topology.PeerID, bool) {
	g := &a.sc.grid // free between requests
	*g = memGrid{a: a, now: now}
	return Recover(g, s.User, s.Peers, s.Instances, k, s.Start+s.Duration-now, s.Span)
}

// Providers implements RecoveryGrid: a registry lookup from at.
func (g *memGrid) Providers(at topology.PeerID, inst *service.Instance) []topology.PeerID {
	entries, _, _ := g.a.Registry.Lookup(at, inst.Service, g.now)
	for _, e := range entries {
		if e.Inst == inst {
			return e.Providers(g.now, nil)
		}
	}
	return nil
}

// Choose implements RecoveryGrid: the Φ selector's step at at, the
// candidates entering its table one hop away. The session manager moves
// the reservation, so the component index plays no part.
func (g *memGrid) Choose(at topology.PeerID, _ int, inst *service.Instance, cands []topology.PeerID,
	remaining float64, _ obs.SpanContext) (topology.PeerID, bool) {

	return g.a.PhiSelector.SelectNext(at, inst, cands, remaining, g.now, probe.IndirectRank(1))
}
