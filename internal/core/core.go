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

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageNone:
		return "admitted"
	case StageDiscovery:
		return "discovery"
	case StageCompose:
		return "compose"
	case StageSelection:
		return "selection"
	case StageAdmission:
		return "admission"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
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

// aggScratch is the aggregation pipeline's reusable working memory: the
// discovery result, per-hop provider buffers, and the retry-excluded
// layer double buffer all live here and are recycled across Aggregate
// calls, so the steady-state request path performs no slice or map
// allocations of its own.
type aggScratch struct {
	disc      Discovery
	providers [][]topology.PeerID
	// retry alternates between two layer buffers: attempt n+1's filtered
	// layers are built while attempt n's (the source of the filter) are
	// still referenced, so a single buffer would alias itself.
	retry [2][][]*service.Instance
}

// Aggregator is the integrated QSA engine over a grid's subsystems. It is
// single-goroutine, like the simulation driving it: the scratch buffers,
// the RNG, and the tracer are all unsynchronized.
type Aggregator struct {
	Registry *registry.Registry
	Sessions *session.Manager

	// PhiSelector performs informed Φ selection (and recovery).
	PhiSelector *selection.Selector
	// RandomSelector and FixedSelector are the baseline selectors.
	RandomSelector *selection.Random
	FixedSelector  *selection.Fixed

	// ComposeConfig carries the Definition 3.1 weights.
	ComposeConfig compose.Config

	// RNG drives the random composer.
	RNG *xrand.Source

	// Tracer, when non-nil, receives decision-trace events (compose
	// results, retries, reservations, admissions, recoveries). Like RNG
	// it is used from the single simulation goroutine only.
	Tracer *obs.Tracer
	// ReqID is the request ID stamped onto trace events. The caller
	// (the simulator) sets it before each Aggregate call so core events
	// join the caller's request span; it is never read when Tracer is
	// nil.
	ReqID uint64
	// Spans, when enabled, mints the causal stage spans of the request
	// trace, and ReqSpan is the current request's root span context —
	// set by the caller alongside ReqID (the zero context marks the
	// request unsampled, making every stage span inert). Stage spans are
	// emitted only from the serial paths — Aggregate, AggregateFinish,
	// and the attempt loop — never from the Prepare* speculative stages,
	// so the span-ID sequence (and with it every trace byte) replays
	// identically across shard counts. In simulator virtual time the
	// whole pipeline runs at one instant, so these spans are
	// zero-duration: they carry structure (stage order, attempts,
	// outcomes), not latency; the prototype's wall-clock spans carry
	// both (DESIGN §13).
	Spans   *obs.Spans
	ReqSpan obs.SpanContext

	sc aggScratch
}

// stageName maps a pipeline stage onto the obs trace vocabulary.
func stageName(s Stage) string {
	switch s {
	case StageDiscovery:
		return obs.StageDiscovery
	case StageCompose:
		return obs.StageCompose
	case StageSelection:
		return obs.StageSelection
	default:
		return obs.StageAdmission
	}
}

// EventStage is the trace stage a pipeline error is attributed to —
// exported so event consumers and RequestStats bookkeeping agree on the
// mapping (every non-pipeline admission error is "admission").
func EventStage(err error) string {
	return stageName(StageOf(err))
}

// stageSpan closes one stage span under the current request's root.
// The disabled path (Spans nil or the request unsampled) is a couple of
// branches and allocates nothing; call sites that build allocating
// event fields gate on Spans.Enabled() first.
func (a *Aggregator) stageSpan(ev obs.Event) {
	a.Spans.Join(a.ReqSpan, a.ReqID).End(ev)
}

// Discovery is the result of looking up every service of an abstract path.
type Discovery struct {
	Layers  [][]*service.Instance
	Entries [][]*registry.InstanceEntry

	// byInst indexes every discovered entry by its instance, so Providers
	// is a map probe instead of a per-call layer scan. Instances are
	// registry-unique, so one flat index covers all layers.
	byInst map[*service.Instance]*registry.InstanceEntry
}

// Discover performs the DHT lookups for the request's abstract path from
// the user's peer.
func (a *Aggregator) Discover(user topology.PeerID, path []service.Name, now float64) (*Discovery, error) {
	d := &Discovery{}
	if err := a.discoverInto(d, user, path, now); err != nil {
		return nil, err
	}
	return d, nil
}

// discoverInto runs the lookups into d, reusing whatever buffers d
// already holds.
func (a *Aggregator) discoverInto(d *Discovery, user topology.PeerID, path []service.Name, now float64) error {
	for len(d.Layers) < len(path) {
		d.Layers = append(d.Layers, nil)
		d.Entries = append(d.Entries, nil)
	}
	d.Layers = d.Layers[:len(path)]
	d.Entries = d.Entries[:len(path)]
	if d.byInst == nil {
		d.byInst = make(map[*service.Instance]*registry.InstanceEntry)
	} else {
		clear(d.byInst)
	}
	for k, name := range path {
		es, _, err := a.Registry.Lookup(user, name, now)
		if err != nil {
			return &ErrAggregation{StageDiscovery, err}
		}
		if len(es) == 0 {
			return &ErrAggregation{StageDiscovery, fmt.Errorf("no candidates for %q", name)}
		}
		d.Entries[k] = es
		layer := d.Layers[k][:0]
		for _, e := range es {
			layer = append(layer, e.Inst)
			d.byInst[e.Inst] = e
		}
		d.Layers[k] = layer
	}
	return nil
}

// Providers appends to dst the live provider peers of the chosen instance
// at layer k of the discovery and returns dst.
func (d *Discovery) Providers(k int, inst *service.Instance, now float64, dst []topology.PeerID) []topology.PeerID {
	if d.byInst != nil {
		if e, ok := d.byInst[inst]; ok {
			return e.Providers(now, dst)
		}
		return dst
	}
	for _, e := range d.Entries[k] {
		if e.Inst == inst {
			return e.Providers(now, dst)
		}
	}
	return dst
}

// Aggregate runs the full pipeline for one request. On success it returns
// the admitted session; on failure, an *ErrAggregation carrying the stage
// of the final attempt.
func (a *Aggregator) Aggregate(user topology.PeerID, req *service.Request,
	now float64, strat Strategy) (*session.Session, error) {

	if err := req.Validate(); err != nil {
		if a.Spans.Enabled() {
			a.stageSpan(obs.Event{Stage: obs.StageDiscovery, Err: err.Error()})
		}
		return nil, &ErrAggregation{StageDiscovery, err}
	}
	disc := &a.sc.disc
	if err := a.discoverInto(disc, user, req.App.Path, now); err != nil {
		if a.Spans.Enabled() {
			a.stageSpan(obs.Event{Stage: obs.StageDiscovery, Err: err.Error()})
		}
		return nil, err
	}
	if a.Spans.Enabled() {
		a.stageSpan(obs.Event{Stage: obs.StageDiscovery, OK: true})
	}
	return a.runAttempts(user, req, now, strat, disc, a.RNG, nil, nil, false)
}

// runAttempts is the compose→select→admit retry loop shared by Aggregate
// and AggregateFinish. When preComposed is true, attempt 0 consumes the
// already-computed (prepPath, prepErr) pair instead of composing; every
// later attempt composes over the exclusion-filtered layers with rng.
func (a *Aggregator) runAttempts(user topology.PeerID, req *service.Request, now float64,
	strat Strategy, disc *Discovery, rng *xrand.Source,
	prepPath *compose.Path, prepErr error, preComposed bool) (*session.Session, error) {

	layers := disc.Layers
	var lastErr error
	for attempt := 0; attempt <= strat.Retries; attempt++ {
		if attempt > 0 && a.Tracer != nil {
			a.Tracer.Emit(obs.Event{Kind: obs.KindRetry, Req: a.ReqID, Attempt: attempt})
		}
		var sess *session.Session
		var path *compose.Path
		var err error
		if attempt == 0 && preComposed {
			sess, path, err = a.attemptWith(user, req, now, strat, disc, prepPath, prepErr, attempt)
		} else {
			sess, path, err = a.attempt(user, req, now, strat, disc, layers, attempt, rng)
		}
		if err == nil {
			return sess, nil
		}
		lastErr = err
		stage := StageOf(err)
		if stage != StageSelection && stage != StageAdmission || path == nil {
			return nil, err // compose failures cannot improve by retrying
		}
		// Exclude the failed path's instances and recompose over the rest.
		next := a.sc.retry[attempt%2]
		for len(next) < len(layers) {
			next = append(next, nil)
		}
		next = next[:len(layers)]
		for k := range layers {
			nk := next[k][:0]
			for _, in := range layers[k] {
				if in != path.Instances[k] {
					nk = append(nk, in)
				}
			}
			next[k] = nk
			if len(nk) == 0 {
				a.sc.retry[attempt%2] = next
				return nil, err // a layer ran out of candidates
			}
		}
		a.sc.retry[attempt%2] = next
		layers = next
	}
	return nil, lastErr
}

// composePath runs the strategy's composition algorithm over layers.
func (a *Aggregator) composePath(layers [][]*service.Instance, req *service.Request,
	strat Strategy, rng *xrand.Source) (*compose.Path, error) {
	switch strat.Compose {
	case ComposeQCS:
		return compose.QCS(layers, req.UserQoS, a.ComposeConfig)
	case ComposeRandom:
		return compose.Random(layers, req.UserQoS, rng, a.ComposeConfig)
	case ComposeFixed:
		return compose.Fixed(layers, req.UserQoS, a.ComposeConfig)
	}
	return nil, fmt.Errorf("unknown composer %d", strat.Compose)
}

// attempt runs one compose→select→admit pass over the given layers.
func (a *Aggregator) attempt(user topology.PeerID, req *service.Request, now float64,
	strat Strategy, disc *Discovery, layers [][]*service.Instance, attempt int,
	rng *xrand.Source) (*session.Session, *compose.Path, error) {

	path, err := a.composePath(layers, req, strat, rng)
	return a.attemptWith(user, req, now, strat, disc, path, err, attempt)
}

// attemptWith finishes one attempt from an already-computed composition
// outcome: it emits the compose trace event and runs the
// provider-resolution → selection → admission tail.
func (a *Aggregator) attemptWith(user topology.PeerID, req *service.Request, now float64,
	strat Strategy, disc *Discovery, path *compose.Path, err error, attempt int) (*session.Session, *compose.Path, error) {

	if err != nil {
		if a.Tracer != nil {
			a.Tracer.Emit(obs.Event{Kind: obs.KindCompose, Req: a.ReqID, Attempt: attempt, Err: err.Error()})
		}
		if a.Spans.Enabled() {
			a.stageSpan(obs.Event{Stage: obs.StageCompose, Attempt: attempt, Err: err.Error()})
		}
		return nil, nil, &ErrAggregation{StageCompose, err}
	}
	if a.Tracer != nil {
		ids := make([]string, len(path.Instances))
		for i, in := range path.Instances {
			ids[i] = in.ID
		}
		a.Tracer.Emit(obs.Event{Kind: obs.KindCompose, Req: a.ReqID, Attempt: attempt,
			Path: ids, Cost: path.Cost, OK: true})
	}
	if a.Spans.Enabled() {
		a.stageSpan(obs.Event{Stage: obs.StageCompose, Attempt: attempt, Cost: path.Cost, OK: true})
	}

	for len(a.sc.providers) < len(path.Instances) {
		a.sc.providers = append(a.sc.providers, nil)
	}
	providers := a.sc.providers[:len(path.Instances)]
	for k, inst := range path.Instances {
		providers[k] = disc.Providers(k, inst, now, providers[k][:0])
		if len(providers[k]) == 0 {
			if a.Spans.Enabled() {
				a.stageSpan(obs.Event{Stage: obs.StageSelection, Attempt: attempt,
					Err: "no live providers for " + inst.ID})
			}
			return nil, path, &ErrAggregation{StageSelection, fmt.Errorf("no live providers for %s", inst.ID)}
		}
	}
	var peers []topology.PeerID
	var ok bool
	switch strat.Select {
	case SelectPhi:
		peers, ok = a.PhiSelector.SelectPath(user, path.Instances, providers, req.Duration, now)
	case SelectRandom:
		peers, ok = a.RandomSelector.SelectPath(user, path.Instances, providers, req.Duration, now)
	case SelectFixed:
		peers, ok = a.FixedSelector.SelectPath(user, path.Instances, providers, req.Duration, now)
	}
	if !ok {
		if a.Spans.Enabled() {
			a.stageSpan(obs.Event{Stage: obs.StageSelection, Attempt: attempt, Err: "no selectable peer"})
		}
		return nil, path, &ErrAggregation{StageSelection, fmt.Errorf("no selectable peer")}
	}
	if a.Spans.Enabled() {
		a.stageSpan(obs.Event{Stage: obs.StageSelection, Attempt: attempt, OK: true})
	}

	sess, err := a.Sessions.Admit(user, path.Instances, peers, req.Duration)
	if err != nil {
		if a.Tracer != nil {
			a.Tracer.Emit(obs.Event{Kind: obs.KindReserve, Req: a.ReqID, Attempt: attempt, Err: err.Error()})
		}
		if a.Spans.Enabled() {
			a.stageSpan(obs.Event{Stage: obs.StageAdmission, Attempt: attempt, Err: err.Error()})
		}
		return nil, path, &ErrAggregation{StageAdmission, err}
	}
	if a.Tracer != nil {
		hosts := make([]string, len(peers))
		for i, p := range peers {
			hosts[i] = strconv.Itoa(int(p))
		}
		a.Tracer.Emit(obs.Event{Kind: obs.KindAdmit, Req: a.ReqID, Attempt: attempt,
			Session: strconv.FormatUint(sess.ID, 10), Path: hosts, OK: true})
	}
	if a.Spans.Enabled() {
		a.stageSpan(obs.Event{Stage: obs.StageAdmission, Attempt: attempt, OK: true,
			Session: strconv.FormatUint(sess.ID, 10)})
	}
	return sess, path, nil
}

// PreparedAggregation carries the pre-stages of one request through the
// sharded engine: discovery (serial pre-pass) and the first composition
// attempt (speculative parallel stage). The commit validates it against
// the registry epoch and topology version captured by the caller and
// either finishes via AggregateFinish or discards it and redoes the
// request with plain Aggregate.
type PreparedAggregation struct {
	// Disc is the discovery result, owned by this request (not the
	// aggregator's scratch) so prepared requests can coexist within an
	// epoch.
	Disc *Discovery
	// Err is a validation or discovery failure; when set the other
	// fields are empty and AggregateFinish returns it unchanged.
	Err error
	// Path and ComposeErr are the speculative first composition outcome;
	// meaningful only when Composed is true.
	Path       *compose.Path
	ComposeErr error
	Composed   bool
}

// PrepareDiscovery runs the validation and discovery head of the
// pipeline for one request. It is the serial pre-stage of the sharded
// engine: it charges registry lookups (and their statistics) at claim
// time, in merged event order, so the charge sequence is identical for
// every shard count. The result is self-contained — it does not alias
// the aggregator's scratch buffers.
func (a *Aggregator) PrepareDiscovery(user topology.PeerID, req *service.Request,
	now float64) *PreparedAggregation {

	p := &PreparedAggregation{}
	if err := req.Validate(); err != nil {
		p.Err = &ErrAggregation{StageDiscovery, err}
		return p
	}
	d := &Discovery{}
	if err := a.discoverInto(d, user, req.App.Path, now); err != nil {
		p.Err = err
		return p
	}
	p.Disc = d
	return p
}

// PrepareCompose runs the speculative first composition attempt over a
// prepared discovery. It touches only the aggregator's compose scratch
// and memo (lane-local in the sharded simulator) plus rng, so it is safe
// on a prepare worker as long as each aggregator stays on one goroutine.
// A prepared request that failed discovery is left untouched.
func (a *Aggregator) PrepareCompose(p *PreparedAggregation, req *service.Request,
	strat Strategy, rng *xrand.Source) {

	if p.Err != nil || p.Disc == nil {
		return
	}
	p.Path, p.ComposeErr = a.composePath(p.Disc.Layers, req, strat, rng)
	p.Composed = true
}

// AggregateFinish commits a prepared request: it consumes the prepared
// discovery and first composition (composing inline if the speculative
// stage never ran) and continues through selection, admission, and the
// retry loop with rng. The caller must have validated that the registry
// and topology are unchanged since PrepareDiscovery; otherwise it must
// discard the preparation and call Aggregate instead.
func (a *Aggregator) AggregateFinish(p *PreparedAggregation, user topology.PeerID,
	req *service.Request, now float64, strat Strategy, rng *xrand.Source) (*session.Session, error) {

	if p.Err != nil {
		if a.Spans.Enabled() {
			a.stageSpan(obs.Event{Stage: EventStage(p.Err), Err: p.Err.Error()})
		}
		return nil, p.Err
	}
	// The discovery span is closed here — at the commit, not in
	// PrepareDiscovery — so the span-ID stream advances in commit order
	// exactly as the unsharded execution would.
	if a.Spans.Enabled() {
		a.stageSpan(obs.Event{Stage: obs.StageDiscovery, OK: true})
	}
	if !p.Composed {
		a.PrepareCompose(p, req, strat, rng)
	}
	return a.runAttempts(user, req, now, strat, p.Disc, rng, p.Path, p.ComposeErr, true)
}

// PathCost exposes the aggregated Definition 3.1 cost of an instance
// sequence.
func (a *Aggregator) PathCost(instances []*service.Instance) float64 {
	return a.ComposeConfig.PathCost(instances)
}

// Recover re-selects a replacement peer for component k of a session whose
// host departed — the session.RecoveryFunc implementation. The replacement
// is chosen from the component's current live providers by the downstream
// neighbor, using the Φ selector.
func (a *Aggregator) Recover(s *session.Session, k int, now float64) (topology.PeerID, bool) {
	// Recovery runs from churn handling, outside any Aggregate call, so
	// the trace event is attributed via the session (ReqID is stale
	// here); Analyze joins it back to the request through the admit
	// event's session binding.
	replacement, ok := a.recoverStep(s, k, now)
	if a.Tracer != nil {
		ev := obs.Event{Kind: obs.KindRecover, Session: strconv.FormatUint(s.ID, 10),
			Hop: k + 1, Inst: s.Instances[k].ID, OK: ok}
		if ok {
			ev.Peer = strconv.Itoa(int(replacement))
		}
		a.Tracer.Emit(ev)
	}
	return replacement, ok
}

// recoverStep is the recovery decision proper.
func (a *Aggregator) recoverStep(s *session.Session, k int, now float64) (topology.PeerID, bool) {
	downstream := s.User
	if k < len(s.Peers)-1 {
		downstream = s.Peers[k+1]
	}
	inst := s.Instances[k]
	entries, _, err := a.Registry.Lookup(downstream, inst.Service, now)
	if err != nil {
		return -1, false
	}
	var cands []topology.PeerID
	for _, e := range entries {
		if e.Inst == inst {
			cands = e.Providers(now, cands)
			break
		}
	}
	// The failed host is known to be gone regardless of what (possibly
	// stale, within the probe period) measurements claim — exclude it.
	dead := s.Peers[k]
	live := cands[:0]
	for _, c := range cands {
		if c != dead {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		return -1, false
	}
	remaining := s.Start + s.Duration - now
	return a.PhiSelector.SelectNext(downstream, inst, live, remaining, now, probe.IndirectRank(1))
}
