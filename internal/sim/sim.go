// Package sim is the closed-loop QSA simulator: it binds the network
// model, Chord-based discovery, the composition and peer-selection tiers,
// probing, and session admission into the experiment loop of the paper's
// evaluation (§4.1):
//
//   - N peers (paper: 10⁴) with heterogeneous capacities;
//   - requests arrive at a configurable rate (req/min), each drawn from 10
//     applications with 2–5 hop paths, 3 QoS levels and 1–60 min sessions;
//   - peers churn at a configurable topological variation rate (peers/min,
//     half departures, half arrivals);
//   - a request succeeds iff it is composed, instantiated, admitted, and
//     every provisioning peer stays connected for the whole session.
//
// The simulator runs one of three algorithms: QSA (the paper's model),
// Random, or Fixed (the client-server baseline). All randomness derives
// from Config.Seed; identical configurations replay identically.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/catalog"
	"repro/internal/chord"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Algorithm selects the aggregation strategy under test.
type Algorithm int

const (
	// QSA is the paper's QoS-aware service aggregation model: QCS
	// composition + Φ-based dynamic peer selection.
	QSA Algorithm = iota
	// Random composes a random QoS-consistent path and picks random peers.
	Random
	// Fixed always uses the same path on dedicated peers (client-server).
	Fixed
	// HybridRandomCompose isolates the peer-selection tier: random
	// QoS-consistent path, Φ-based peer selection (ablation A1).
	HybridRandomCompose
	// HybridRandomSelect isolates the composition tier: QCS path, random
	// peer selection (ablation A2).
	HybridRandomSelect
)

// Algorithms lists the paper's three strategies in presentation order.
var Algorithms = []Algorithm{QSA, Random, Fixed}

// AllAlgorithms additionally includes the ablation hybrids.
var AllAlgorithms = []Algorithm{QSA, Random, Fixed, HybridRandomCompose, HybridRandomSelect}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case QSA:
		return "qsa"
	case Random:
		return "random"
	case Fixed:
		return "fixed"
	case HybridRandomCompose:
		return "randpath+phi"
	case HybridRandomSelect:
		return "qcs+randpeer"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a string produced by String back to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "qsa":
		return QSA, nil
	case "random":
		return Random, nil
	case "fixed":
		return Fixed, nil
	case "randpath+phi":
		return HybridRandomCompose, nil
	case "qcs+randpeer":
		return HybridRandomSelect, nil
	}
	return 0, fmt.Errorf("sim: unknown algorithm %q", s)
}

// Strategy maps the algorithm onto the core engine's composer/selector
// pair.
func (a Algorithm) Strategy() core.Strategy {
	switch a {
	case QSA:
		return core.StrategyQSA
	case Random:
		return core.StrategyRandom
	case Fixed:
		return core.StrategyFixed
	case HybridRandomCompose:
		// The hybrids carry QSA's retry budget so the tier ablations vary
		// exactly one thing.
		return core.Strategy{Compose: core.ComposeRandom, Select: core.SelectPhi, Retries: core.StrategyQSA.Retries}
	case HybridRandomSelect:
		return core.Strategy{Compose: core.ComposeQCS, Select: core.SelectRandom, Retries: core.StrategyQSA.Retries}
	default:
		// lint:allow panic-in-library unreachable: the switch is exhaustive over the Algorithm enum
		panic(fmt.Sprintf("sim: unknown algorithm %d", int(a)))
	}
}

// Config parameterizes one simulation run.
type Config struct {
	Seed      uint64
	Algorithm Algorithm

	Peers       int     // N; paper: 10000
	RequestRate float64 // requests per minute
	ChurnRate   float64 // peers arriving+leaving per minute (0 = static)
	Duration    float64 // simulated minutes of workload

	SampleWindow float64 // ψ sampling window in minutes (paper Fig. 6: 2)

	// EnableRecovery turns on the runtime failure-recovery extension
	// (paper future work): on a provisioning peer's departure the session
	// re-selects a replacement peer instead of failing.
	EnableRecovery bool

	// DisableRetry forces single-shot aggregation (the paper-literal
	// behaviour, without the recomposition-on-failure extension); used by
	// the A6 ablation.
	DisableRetry bool

	// TraceSink, when non-nil, receives every issued request — record it
	// with internal/trace to replay the workload later.
	TraceSink func(trace.Entry)

	// Replay, when non-empty, replaces the Poisson workload with this
	// exact request sequence; RequestRate is ignored. Entries whose user
	// has departed fall back to a random alive peer.
	Replay []trace.Entry

	// TelemetryOut, when non-nil, receives the JSON-lines telemetry
	// stream (package obs): one span tree per request, timestamped by
	// the virtual clock — same-seed runs emit byte-identical streams.
	TelemetryOut io.Writer

	// Metrics, when non-nil, receives runtime work counters from every
	// subsystem (compose, selection, probing, sessions, discovery cache,
	// compatibility memo).
	Metrics *obs.Registry

	// DisableCaches turns off the request hot-path caches — the
	// registry's epoch-keyed lookup cache and the composer's
	// compatibility memo. Results are byte-identical either way (the
	// differential suite asserts it); the switch exists for that
	// comparison and for perf analysis.
	DisableCaches bool

	// Shards, when > 0, selects the per-request-stream realization of the
	// workload: request i draws its user, its request and its composition
	// randomness from a private stream seeded by (seed, i) (DESIGN §4.1).
	// Every positive value gives the same results byte for byte — the
	// count names no physical resource. 0 draws every request from the
	// one shared workload stream, the realization the paper's figures
	// were generated with.
	Shards int

	Catalog   catalog.Config
	Topology  topology.Config
	Probe     probe.Config
	Registry  registry.Config
	Compose   compose.Config
	Selection selection.Config
}

// DefaultConfig returns the paper's evaluation setup for the given
// algorithm, scaled to n peers (the paper uses n = 10000).
func DefaultConfig(seed uint64, alg Algorithm, n int) Config {
	return Config{
		Seed:         seed,
		Algorithm:    alg,
		Peers:        n,
		RequestRate:  100,
		ChurnRate:    0,
		Duration:     60,
		SampleWindow: 2,
		Catalog:      catalog.Default(seed),
		Topology:     topology.Default(seed, n),
		Selection:    selection.DefaultConfig(),
	}
}

func (c *Config) fillDefaults() error {
	if c.Peers <= 0 {
		return fmt.Errorf("sim: need a positive peer count")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sim: need a positive duration")
	}
	if c.RequestRate < 0 || c.ChurnRate < 0 {
		return fmt.Errorf("sim: negative rates")
	}
	if c.SampleWindow < 0 || math.IsNaN(c.SampleWindow) || math.IsInf(c.SampleWindow, 0) {
		return fmt.Errorf("sim: bad sample window %g", c.SampleWindow)
	}
	if c.SampleWindow == 0 {
		c.SampleWindow = 2
	}
	if c.Shards < 0 {
		return fmt.Errorf("sim: negative shard count %d", c.Shards)
	}
	if c.Catalog.Apps == 0 {
		c.Catalog = catalog.Default(c.Seed)
	}
	if c.Topology.N == 0 {
		c.Topology = topology.Default(c.Seed, c.Peers)
	}
	c.Topology.N = c.Peers
	c.Topology.Seed = c.Seed
	return nil
}

// RequestStats breaks down request outcomes by failure stage.
type RequestStats struct {
	Issued          uint64
	DiscoveryFailed uint64 // some abstract service had no candidates
	ComposeFailed   uint64 // no QoS-consistent path
	SelectionFailed uint64 // no selectable peer at some hop
	AdmissionFailed uint64 // reservation rejected
	DepartureFailed uint64 // admitted but a provisioning peer left
	Succeeded       uint64
}

// Result is the outcome of one run.
type Result struct {
	Config     Config
	Psi        Ratio   // overall success ratio ψ, read off Requests
	Series     []Point // ψ per sampling window
	Requests   RequestStats
	Sessions   session.Counters
	Probes     probe.Stats
	Selection  selection.Stats      // meaningful for QSA only
	Lookup     registry.LookupStats // DHT routing statistics
	Ring       chord.Stats          // the same routing, hops split by cause
	AliveAtEnd int

	// TelemetryEvents is the number of telemetry events emitted
	// (0 when Config.TelemetryOut is nil); TelemetryErr carries the
	// first telemetry write error, if any.
	TelemetryEvents uint64
	TelemetryErr    error
}

// Simulator is one configured run.
type Simulator struct {
	cfg    Config
	engine *eventsim.Engine
	strat  core.Strategy
	net    *topology.Network
	cat    *catalog.Catalog
	agg    *core.Aggregator
	tracer *obs.Tracer

	// Per-request streams (Config.Shards > 0): the stream salt and the
	// schedule-order index of the next request.
	streamSalt uint64
	reqIndex   uint64

	sampler sampler
	stats   RequestStats

	rngWorkload *xrand.Source
	rngChurn    *xrand.Source
	rngProvider *xrand.Source

	// provides lists, at each alive peer's PeerID, the instances it
	// provides; churnDepart drops a departed peer's row.
	provides     [][]*service.Instance
	adoptPerJoin int // instances a freshly arrived peer starts providing
}

// New builds a simulator: network, DHT, catalog, initial provider
// placement and registrations.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)
	s := &Simulator{
		cfg:         cfg,
		engine:      eventsim.New(),
		strat:       cfg.Algorithm.Strategy(),
		sampler:     sampler{window: cfg.SampleWindow},
		rngWorkload: root.SplitLabeled("workload"),
		rngChurn:    root.SplitLabeled("churn"),
		rngProvider: root.SplitLabeled("providers"),
	}
	if cfg.DisableRetry {
		s.strat.Retries = 0
	}
	if cfg.Shards > 0 {
		s.streamSalt = xrand.MixString(cfg.Seed, "shardreq")
	}
	var err error
	if s.net, err = topology.New(cfg.Topology); err != nil {
		return nil, err
	}
	s.provides = make([][]*service.Instance, s.net.TotalCount())
	if s.cat, err = catalog.New(cfg.Catalog); err != nil {
		return nil, err
	}
	if s.agg, err = core.New(core.Config{
		Seed:          cfg.Seed,
		Registry:      cfg.Registry,
		Probe:         cfg.Probe,
		Selection:     cfg.Selection,
		Compose:       cfg.Compose,
		DisableCaches: cfg.DisableCaches,
		Recovery:      cfg.EnableRecovery,
		Metrics:       cfg.Metrics,
	}, s.net, s.engine); err != nil {
		return nil, err
	}
	if cfg.TelemetryOut != nil {
		// eventsim.Time is an alias for float64, so the engine clock is
		// the tracer clock — events carry simulated minutes.
		s.tracer = obs.NewTracer(cfg.TelemetryOut, s.engine.Now)
		// Span IDs derive from the run seed alone, so same-seed runs mint
		// identical trees whatever the shard count.
		s.agg.Spans = obs.NewSpans(s.tracer, xrand.MixString(cfg.Seed, "spans"))
		// Hop reports join the selection span the aggregator is running
		// (single simulation goroutine, so never stale here).
		s.agg.PhiSelector.Obs = func(rep selection.StepReport) {
			ev := obs.Event{
				Kind:  obs.KindHop,
				Req:   s.agg.ReqID,
				Hop:   rep.Hop,
				Inst:  rep.Inst,
				At:    strconv.Itoa(int(rep.At)),
				Mode:  rep.Mode,
				Trace: s.agg.SelectSpan.Trace,
				Span:  s.agg.SelectSpan.Span,
			}
			if rep.Chosen >= 0 {
				ev.Chosen = strconv.Itoa(int(rep.Chosen))
			}
			for _, c := range rep.Cands {
				ev.Cands = append(ev.Cands, obs.Candidate{
					Peer:   strconv.Itoa(int(c.Peer)),
					Phi:    c.Phi,
					Reason: c.Reason,
				})
			}
			s.tracer.Emit(ev)
		}
	}

	// Join every initial peer to the DHT in bulk (per-join sorted inserts
	// are quadratic at 10⁶ peers). The bulk join leaves the routing state
	// converged, as it should be: the grid under observation has been
	// running.
	initial := make([]topology.PeerID, s.net.TotalCount())
	for i := range initial {
		initial[i] = topology.PeerID(i)
	}
	if err := s.agg.Registry.AddPeers(initial); err != nil {
		return nil, err
	}

	// Initial provider placement: each instance gets 40–80 uniformly
	// chosen provider peers (paper §4.1).
	total := 0
	for _, inst := range s.cat.AllInstances() {
		n := s.cat.ProviderCount(s.rngProvider, s.net.TotalCount())
		total += n
		for placed := 0; placed < n; {
			p := topology.PeerID(s.rngProvider.Intn(s.net.TotalCount()))
			// inst is the last instance placed so far: a peer holds it
			// already iff its row ends with it.
			if row := s.provides[p]; len(row) > 0 && row[len(row)-1] == inst {
				continue
			}
			placed++
			s.provides[p] = append(s.provides[p], inst)
			if err := s.agg.Registry.Register(p, inst, p, 0); err != nil {
				return nil, err
			}
		}
	}
	s.adoptPerJoin = (total + s.net.TotalCount() - 1) / s.net.TotalCount()

	s.agg.Sessions.OnEnd = s.onSessionEnd
	return s, nil
}

// Runner exposes the event engine's execution surface.
func (s *Simulator) Runner() eventsim.Runner { return s.engine }

func (s *Simulator) onSessionEnd(sess *session.Session) {
	ok := sess.State == session.Completed
	s.sampler.record(sess.Start, ok)
	ev := obs.Event{Stage: obs.StageSession, OK: ok}
	if !ok {
		ev.Err = "provisioning peer departed"
	}
	sess.Span.End(ev)
	if ok {
		s.stats.Succeeded++
	} else {
		s.stats.DepartureFailed++
	}
}

// failEarly accounts a request that failed before the pipeline could
// even start (no alive user peer, or an unreplayable trace entry); the
// paper counts these against ψ like any other discovery failure.
func (s *Simulator) failEarly(now float64, app, reason string) {
	s.stats.Issued++
	s.agg.ReqID++
	err := &core.ErrAggregation{Stage: core.StageDiscovery, Err: errors.New(reason)}
	s.fail(now, s.agg.Spans.Root(s.agg.ReqID), obs.Event{App: app}, err)
}

// fail accounts a request that ended without a session: its stage
// counter, its root span (ev, closed with core's name for the stage,
// as the prototype's is) and the ψ sample.
func (s *Simulator) fail(now float64, root obs.Span, ev obs.Event, err error) {
	switch core.StageOf(err) {
	case core.StageDiscovery:
		s.stats.DiscoveryFailed++
	case core.StageCompose:
		s.stats.ComposeFailed++
	case core.StageSelection:
		s.stats.SelectionFailed++
	default:
		s.stats.AdmissionFailed++
	}
	if root.Active() {
		ev.Stage, ev.Err = core.EventStage(err), err.Error()
		root.End(ev)
	}
	s.sampler.record(now, false)
}

// issueRequest draws one request from draw — its user peer, then its
// shape — and runs the aggregation pipeline for it.
func (s *Simulator) issueRequest(now float64, draw *xrand.Source) {
	user := s.net.RandomAliveFrom(draw)
	req := s.cat.SampleRequest(draw)
	if user == nil {
		s.failEarly(now, req.App.ID, "no alive user peer")
		return
	}
	if s.cfg.TraceSink != nil {
		s.cfg.TraceSink(trace.Entry{
			T:        now,
			User:     int(user.ID),
			App:      req.App.ID,
			Level:    req.Level.String(),
			Duration: req.Duration,
		})
	}
	s.issueWith(now, user, req)
}

// issueReplayed replays one recorded request.
func (s *Simulator) issueReplayed(now float64, e trace.Entry) {
	var app *service.Application
	for _, a := range s.cat.Apps {
		if a.ID == e.App {
			app = a
			break
		}
	}
	if app == nil {
		s.failEarly(now, e.App, "replayed app not in catalog")
		return
	}
	lvl, err := qos.ParseLevel(e.Level)
	if err != nil {
		s.failEarly(now, e.App, err.Error())
		return
	}
	user, perr := s.net.Peer(topology.PeerID(e.User))
	if perr != nil || !user.Alive {
		user = s.net.RandomAliveFrom(s.rngWorkload)
	}
	if user == nil {
		s.failEarly(now, e.App, "no alive user peer")
		return
	}
	req := &service.Request{
		App:      app,
		Level:    lvl,
		UserQoS:  s.cat.UserQoS(s.rngWorkload, lvl),
		Duration: e.Duration,
	}
	s.issueWith(now, user, req)
}

// issueWith runs the aggregation pipeline for a concrete (user, request).
func (s *Simulator) issueWith(now float64, user *topology.Peer, req *service.Request) {
	s.stats.Issued++
	s.agg.ReqID++ // the root span's request; core's stage spans join it
	root := s.agg.Spans.Root(s.agg.ReqID)
	s.agg.ReqSpan = root.Context()
	var ev obs.Event
	if root.Active() {
		ev = obs.Event{User: strconv.Itoa(int(user.ID)), App: req.App.ID, Level: req.Level.String()}
	}
	sess, err := s.agg.Aggregate(user.ID, req, now, s.strat)
	if err != nil {
		s.fail(now, root, ev, err)
		return
	}
	if root.Active() {
		// The root closes at admission; the session span runs on until
		// onSessionEnd records the outcome.
		ev.OK, ev.Session = true, strconv.FormatUint(sess.ID, 10)
		root.End(ev)
		sess.Span = root.Child()
	}
}

// churnDepart removes one random peer and propagates the departure.
func (s *Simulator) churnDepart(now float64) {
	p := s.net.DepartRandom(now)
	if p == nil {
		return
	}
	_ = s.agg.Depart(p.ID, now)
	// A departed peer never returns (an arrival is a fresh PeerID), and
	// refreshRegistrations skips it: its provider row is dead weight.
	s.provides[p.ID] = nil
}

// churnArrive adds a fresh peer that adopts a provider load matching the
// population average, keeping instance replication roughly stationary.
func (s *Simulator) churnArrive(now float64) {
	p, err := s.net.Join(now)
	if err != nil {
		return
	}
	for int(p.ID) >= len(s.provides) {
		s.provides = append(s.provides, nil)
	}
	if err := s.agg.Registry.AddPeer(p.ID); err != nil {
		return
	}
	all := s.cat.AllInstances()
	for i := 0; i < s.adoptPerJoin; i++ {
		inst := all[s.rngProvider.Intn(len(all))]
		s.provides[p.ID] = append(s.provides[p.ID], inst)
		_ = s.agg.Registry.Register(p.ID, inst, p.ID, now)
	}
}

// refreshPeriod is the re-registration period: half the registry TTL.
func (s *Simulator) refreshPeriod() float64 { return s.agg.Registry.TTL() / 2 }

// refreshRegistrations re-registers every alive provider's instances —
// the soft-state refresh that keeps discovery converged under churn.
func (s *Simulator) refreshRegistrations(now float64) {
	for id, insts := range s.provides {
		if len(insts) == 0 {
			continue
		}
		pid := topology.PeerID(id)
		p := s.net.MustPeer(pid)
		if !p.Alive {
			continue
		}
		for _, inst := range insts {
			_ = s.agg.Registry.Register(pid, inst, pid, now)
		}
	}
}

// scheduleRequests plans one minute of workload starting at now. Counts
// and arrival times come from the shared workload stream. With
// Config.Shards > 0 each request then draws everything else — user,
// request, composition randomness — from its own stream, seeded by its
// schedule-order index.
func (s *Simulator) scheduleRequests(now float64) {
	nReq := s.rngWorkload.Poisson(s.cfg.RequestRate)
	for i := 0; i < nReq; i++ {
		at := now + s.rngWorkload.Float64()
		if s.cfg.Shards == 0 {
			s.engine.At(at, func() { s.issueRequest(at, s.rngWorkload) })
			continue
		}
		idx := s.reqIndex
		s.reqIndex++
		s.engine.At(at, func() {
			src := xrand.New(xrand.MixIndex(s.streamSalt, idx))
			s.agg.RNG = src
			s.issueRequest(at, src)
		})
	}
}

// ChurnCounts splits one minute of topological variation at the given
// rate (peers/min) into departure and arrival counts — Poisson-thinned
// half/half so the population stays stationary (DESIGN.md §9 churn
// model). Exported so other fault planes (the internal/faults chaos
// harness crashing and restarting prototype peers) schedule churn with
// exactly the distribution the simulator uses.
func ChurnCounts(rng *xrand.Source, perMinute float64) (departures, arrivals int) {
	if perMinute <= 0 {
		return 0, 0
	}
	return rng.Poisson(perMinute / 2), rng.Poisson(perMinute / 2)
}

// scheduleChurn plans one minute of topological variation starting at now.
func (s *Simulator) scheduleChurn(now float64) {
	dep, arr := ChurnCounts(s.rngChurn, s.cfg.ChurnRate)
	if dep == 0 && arr == 0 {
		return
	}
	for i := 0; i < dep; i++ {
		at := now + s.rngChurn.Float64()
		s.engine.At(at, func() { s.churnDepart(at) })
	}
	for i := 0; i < arr; i++ {
		at := now + s.rngChurn.Float64()
		s.engine.At(at, func() { s.churnArrive(at) })
	}
}

// Run executes the configured workload and returns the result. Sessions
// still active when the workload window closes are allowed to play out —
// with churn and registry refresh still running, so late sessions face the
// same departure risk as early ones — and every request gets a definite
// outcome.
func (s *Simulator) Run() *Result {
	// Sessions issued in the last workload minute can run for up to the
	// catalog's maximum duration past the window.
	maxDur := s.cfg.Catalog.MaxDuration
	if maxDur <= 0 {
		maxDur = 60
	}
	drainHorizon := s.cfg.Duration + maxDur
	var requests *eventsim.Ticker
	if len(s.cfg.Replay) > 0 {
		for _, e := range s.cfg.Replay {
			if e.T >= s.cfg.Duration {
				continue
			}
			e := e
			s.engine.At(e.T, func() { s.issueReplayed(e.T, e) })
		}
	} else {
		requests = s.engine.Every(0, 1, func() {
			if s.engine.Now() < s.cfg.Duration {
				s.scheduleRequests(s.engine.Now())
			}
		})
	}
	churn := s.engine.Every(0, 1, func() {
		if s.engine.Now() < drainHorizon {
			s.scheduleChurn(s.engine.Now())
		}
	})
	refresh := s.engine.Every(s.refreshPeriod(), s.refreshPeriod(), func() {
		s.refreshRegistrations(s.engine.Now())
	})
	s.engine.RunUntil(s.cfg.Duration)
	if requests != nil {
		requests.Cancel()
	}
	s.engine.RunUntil(drainHorizon)
	churn.Cancel()
	refresh.Cancel()
	s.engine.Run() // drain any remaining completions

	// Requests are attributed to issue time, so windows past the
	// workload's are empty anyway.
	res := &Result{
		Config:     s.cfg,
		Psi:        Ratio{Success: s.stats.Succeeded, Failure: s.stats.Issued - s.stats.Succeeded},
		Series:     s.sampler.series(s.cfg.Duration + s.cfg.SampleWindow),
		Requests:   s.stats,
		Sessions:   s.agg.Sessions.Counters(),
		Probes:     s.agg.Probes.Stats(),
		Selection:  s.agg.PhiSelector.Stats(),
		Lookup:     s.agg.Registry.Stats(),
		Ring:       s.agg.Registry.RingStats(),
		AliveAtEnd: s.net.AliveCount(),
	}
	if s.tracer != nil {
		res.TelemetryErr = s.tracer.Flush()
		res.TelemetryEvents = s.tracer.Count()
	}
	return res
}

// Run is the one-call convenience: build a simulator from cfg and run it.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}
