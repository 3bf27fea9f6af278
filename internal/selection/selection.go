// Package selection implements the dynamic peer selection tier of QSA
// (paper §3.3): mapping the service instances chosen by the composition
// tier onto concrete peers, hop by hop, in the reverse direction of the
// service aggregation flow.
//
// Each selection step runs at the previously selected peer (starting at
// the user's host) and may use only that peer's locally probed performance
// information. A step:
//
//  1. resolves the candidate providers into the local neighbor table
//     (dynamic neighbor resolution, package probe) and probes them subject
//     to the M cap;
//  2. filters probed candidates by liveness, by uptime ≥ the application's
//     session duration (tolerance to topological variation), and by
//     resource/bandwidth feasibility against the instance requirements;
//  3. picks the qualified candidate maximizing the integrated configurable
//     metric Φ = Σᵢ ωᵢ·RAᵢ/rᵢ + ω_{m+1}·β/b (eq. 4–5);
//  4. falls back to a uniformly random pick among candidates whose
//     performance information is not available, as the paper prescribes.
//
// The package also provides the paper's two baselines: Random (uniform
// peer choice, no information) and Fixed (the same "dedicated server" peer
// every time — the client-server model).
package selection

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Config parameterizes the QSA selector.
type Config struct {
	// Weights are ω₁…ω_m for the end-system resource dimensions followed
	// by ω_{m+1} for bandwidth; they must sum to 1 (eq. 5). Default
	// uniform [1/3, 1/3, 1/3], matching the paper's evaluation.
	Weights []float64
	// UseUptime enables the uptime ≥ session duration filter. On by
	// default in QSA; the ablation benches switch it off.
	UseUptime bool
}

// DefaultConfig returns the paper's QSA selector configuration.
func DefaultConfig() Config {
	return Config{
		Weights:   []float64{1.0 / 3, 1.0 / 3, 1.0 / 3},
		UseUptime: true,
	}
}

// Validate checks the weight vector against eq. 5.
func (c Config) Validate() error {
	var sum float64
	for _, w := range c.Weights {
		if w < 0 {
			return fmt.Errorf("selection: negative weight %v", w)
		}
		sum += w
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return fmt.Errorf("selection: weights sum to %v, want 1", sum)
	}
	return nil
}

// Stats counts selection outcomes across a run.
type Stats struct {
	Informed  uint64 // steps decided by the Φ metric
	Fallbacks uint64 // steps decided by the random fallback
	Failures  uint64 // steps with no selectable candidate
}

// CandReport explains the fate of one candidate during a selection
// step, with Phi and Reason as Decide reports them.
type CandReport struct {
	Peer   topology.PeerID
	Phi    float64 // zero when filtered before scoring
	Reason string
}

// StepReport describes one hop-by-hop selection step for the decision
// trace: where it ran, what it was selecting, every candidate's fate,
// and how the step was decided ("informed", "fallback" or "none").
type StepReport struct {
	Hop    int // 1-based, aggregation-flow order
	At     topology.PeerID
	Inst   string
	Chosen topology.PeerID // -1 when no candidate was selectable
	Mode   string
	Cands  []CandReport
}

// Selector is the QSA peer selector. It consults the probe manager for
// local performance information and never looks at global state.
type Selector struct {
	cfg    Config
	probes *probe.Manager
	rng    *xrand.Source

	// Obs, when non-nil, receives a StepReport for every SelectPath
	// step (recovery re-selections are not reported — they have no hop
	// context). Building the reports costs allocations, so leave it nil
	// unless hop events are wanted.
	Obs func(StepReport)
	// Counters is the one count of selection work and outcomes; Stats
	// reads it. New gives it private counters; wire it to a registry
	// before the first step to publish them.
	Counters obs.SelectionCounters
}

// New returns a selector. rng drives only the random fallback.
func New(cfg Config, probes *probe.Manager, rng *xrand.Source) (*Selector, error) {
	if len(cfg.Weights) == 0 {
		cfg.Weights = DefaultConfig().Weights
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Selector{cfg: cfg, probes: probes, rng: rng,
		Counters: obs.NewSelectionCounters(obs.NewRegistry())}, nil
}

// Stats returns cumulative selection statistics.
func (s *Selector) Stats() Stats {
	return Stats{
		Informed:  s.Counters.Informed.Value(),
		Fallbacks: s.Counters.Fallbacks.Value(),
		Failures:  s.Counters.Failures.Value(),
	}
}

// PhiValue evaluates the integrated metric Φ (eq. 4) with explicit
// weights: Σᵢ ωᵢ·availᵢ/rᵢ + ω_{m+1}·availNet/bNet. Requirement dimensions
// that are zero contribute nothing. Exported so non-simulated deployments
// (the TCP prototype) can rank candidates with the same formula.
func PhiValue(weights, avail []float64, availNet float64, r []float64, bNet float64) float64 {
	m := len(weights) - 1
	var phi float64
	for i := 0; i < m && i < len(r) && i < len(avail); i++ {
		if r[i] > 0 {
			phi += weights[i] * avail[i] / r[i]
		}
	}
	if bNet > 0 && m >= 0 {
		phi += weights[m] * availNet / bNet
	}
	return phi
}

// Phi evaluates the integrated metric (eq. 4) for a candidate with probed
// info against the instance requirements r (end-system) and bKbps
// (bandwidth).
func (s *Selector) Phi(info probe.Info, r []float64, bKbps float64) float64 {
	return PhiValue(s.cfg.Weights, info.Available, info.AvailKbps, r, bKbps)
}

// SelectNext performs one hop-by-hop selection step at peer current:
// choose, among candidates, the peer to execute inst, for a session of
// dur minutes starting at now. rank is the benefit class the candidates
// enter current's neighbor table with. It reports the chosen peer and
// whether any choice was possible.
func (s *Selector) SelectNext(current topology.PeerID, inst *service.Instance,
	candidates []topology.PeerID, dur, now float64, rank probe.Rank) (topology.PeerID, bool) {

	chosen, ok, _, _ := s.selectStep(current, inst, candidates, dur, now, rank, false)
	return chosen, ok
}

// selectStep is SelectNext plus decision accounting. With report set it
// additionally returns every candidate's fate and the decision mode for
// the trace stream. Measuring is this selector's part — the probe table
// and the bandwidth oracle; the decision over the measurements is Decide.
func (s *Selector) selectStep(current topology.PeerID, inst *service.Instance,
	candidates []topology.PeerID, dur, now float64, rank probe.Rank,
	report bool) (topology.PeerID, bool, string, []CandReport) {

	// Dynamic neighbor resolution + probing, bounded by M.
	s.probes.Resolve(current, candidates, rank, now)

	var cands []CandReport
	var note func(int, float64, string)
	if report {
		cands = make([]CandReport, len(candidates))
		note = func(i int, phi float64, reason string) { cands[i] = CandReport{candidates[i], phi, reason} }
	}
	i, mode := Decide(len(candidates), func(i int) Candidate {
		c := candidates[i]
		if c == current {
			return Candidate{Self: true}
		}
		info, ok := s.probes.Fresh(current, c, now)
		switch {
		case !ok:
			return Candidate{NoInfo: true}
		case !info.Alive:
			return Candidate{Dead: true}
		case !fits(info.Available, inst.R) || info.AvailKbps < inst.OutKbps:
			return Candidate{Infeasible: true}
		}
		return Candidate{Phi: s.Phi(info, inst.R, inst.OutKbps), UptimeOK: !s.cfg.UseUptime || info.Uptime >= dur}
	}, s.rng, s.Counters, note)
	if i < 0 {
		return -1, false, mode, cands
	}
	return candidates[i], true, mode, cands
}

// The modes Decide returns: Φ decided, a random pick, nothing selectable.
const modeInformed, modeFallback, modeNone = "informed", "fallback", "none"

// Candidate is one candidate provider as the deciding peer measured it.
// Measuring is each front end's own part (the simulator's probe table
// and bandwidth oracle, the prototype's RTT probe); Decide is shared.
type Candidate struct {
	Self       bool    // the candidate is the deciding peer itself
	NoInfo     bool    // no fresh performance information
	Dead       bool    // the last measurement found it gone
	Infeasible bool    // its resources or bandwidth do not fit the instance
	Phi        float64 // eq. 4, for a feasible candidate
	UptimeOK   bool    // uptime ≥ the session duration, or that filter is off
}

// Decide is one hop-by-hop selection step over n candidates, measured in
// order by measure. It applies the paper's filters in order (self, no
// information, dead, infeasible), then two preference tiers (§3.3): the
// uptime-qualified candidate maximizing Φ or, when none qualifies (a
// young grid), the feasible one maximizing Φ. When nothing could be
// scored it picks uniformly with rng among candidates without
// information, as the paper prescribes. It returns the chosen index (-1
// for none) and the mode ("informed", "fallback" or "none"), counts
// into c, and with note non-nil reports every candidate's Φ and fate in
// the obs trace vocabulary ("chosen", "lower-phi", "short-uptime",
// "infeasible", "no-info", "dead", "self").
func Decide(n int, measure func(i int) Candidate, rng *xrand.Source,
	c obs.SelectionCounters, note func(i int, phi float64, reason string)) (int, string) {

	c.Steps.Inc()
	if note == nil {
		note = func(int, float64, string) {}
	}
	bestUp, bestAny := -1, -1
	phiUp, phiAny := 0.0, 0.0
	var unknown []int
	for i := 0; i < n; i++ {
		m := measure(i)
		switch {
		case m.Self:
			note(i, 0, "self")
		case m.NoInfo:
			c.NoInfo.Inc()
			unknown = append(unknown, i)
			note(i, 0, "no-info")
		case m.Dead:
			note(i, 0, "dead")
		case m.Infeasible:
			c.Infeasible.Inc()
			note(i, 0, "infeasible")
		case m.UptimeOK:
			note(i, m.Phi, "lower-phi")
			if bestUp < 0 || m.Phi > phiUp {
				bestUp, phiUp = i, m.Phi
			}
		default:
			c.UptimeFiltered.Inc()
			note(i, m.Phi, "short-uptime")
			if bestAny < 0 || m.Phi > phiAny {
				bestAny, phiAny = i, m.Phi
			}
		}
	}
	switch {
	case bestUp >= 0:
		c.Informed.Inc()
		note(bestUp, phiUp, "chosen")
		return bestUp, modeInformed
	case bestAny >= 0:
		c.Informed.Inc()
		note(bestAny, phiAny, "chosen")
		return bestAny, modeInformed
	case len(unknown) > 0:
		c.Fallbacks.Inc()
		i := unknown[rng.Intn(len(unknown))]
		note(i, 0, "chosen")
		return i, modeFallback
	}
	c.Failures.Inc()
	return -1, modeNone
}

func fits(avail, req []float64) bool {
	for i := range req {
		if i >= len(avail) || avail[i] < req[i] {
			return false
		}
	}
	return true
}

// SelectPath runs the full distributed hop-by-hop procedure for a composed
// service path: instances in aggregation-flow order (source first) with
// providers[i] the candidate peers of instances[i]. Selection proceeds in
// the REVERSE direction of the flow, starting from the user. The user's
// host additionally resolves every hop's candidate set as its i-hop direct
// neighbors (the paper's neighbor definition, Figure 2). The returned
// slice is aligned with instances.
func (s *Selector) SelectPath(user topology.PeerID, instances []*service.Instance,
	providers [][]topology.PeerID, dur, now float64) ([]topology.PeerID, bool) {

	n := len(instances)
	if n == 0 || len(providers) != n {
		return nil, false
	}
	// User-side direct-neighbor resolution: the service at reverse hop i
	// makes its providers the user's i-hop direct neighbors.
	for k := 0; k < n; k++ {
		hop := n - k // instances[n-1] is 1 hop from the user
		if hop > 1 { // hop 1 is resolved inside the first SelectNext
			s.probes.Resolve(user, providers[k], probe.DirectRank(hop), now)
		}
	}
	chosen := make([]topology.PeerID, n)
	current := user
	for k := n - 1; k >= 0; k-- {
		rank := probe.IndirectRank(1)
		if current == user {
			rank = probe.DirectRank(1)
		}
		next, ok, mode, cands := s.selectStep(current, instances[k], providers[k], dur, now, rank, s.Obs != nil)
		if s.Obs != nil {
			s.Obs(StepReport{Hop: k + 1, At: current, Inst: instances[k].ID, Chosen: next, Mode: mode, Cands: cands})
		}
		if !ok {
			return nil, false
		}
		chosen[k] = next
		current = next
	}
	return chosen, true
}

// Random is the paper's random baseline selector: it uniformly picks one
// provider per hop with no performance information at all.
type Random struct {
	rng *xrand.Source
}

// NewRandom returns a random selector driven by rng.
func NewRandom(rng *xrand.Source) *Random { return &Random{rng: rng} }

// SelectPath picks a uniform provider per hop.
func (r *Random) SelectPath(user topology.PeerID, instances []*service.Instance,
	providers [][]topology.PeerID, dur, now float64) ([]topology.PeerID, bool) {

	return perHop(instances, providers, func(ps []topology.PeerID) topology.PeerID { return ps[r.rng.Intn(len(ps))] })
}

// Fixed is the paper's fixed baseline selector: every instance is always
// instantiated on the same dedicated peer — the conventional
// client-server deployment. The dedicated peer is the lowest-numbered
// provider, a stable choice for a stable provider set.
type Fixed struct{}

// NewFixed returns the fixed selector.
func NewFixed() *Fixed { return &Fixed{} }

// SelectPath picks the dedicated (lowest-ID) provider per hop.
func (f *Fixed) SelectPath(user topology.PeerID, instances []*service.Instance,
	providers [][]topology.PeerID, dur, now float64) ([]topology.PeerID, bool) {

	return perHop(instances, providers, slices.Min[[]topology.PeerID])
}

// perHop is the baselines' uninformed selection: pick one of each hop's
// providers, failing when a hop has none.
func perHop(instances []*service.Instance, providers [][]topology.PeerID,
	pick func([]topology.PeerID) topology.PeerID) ([]topology.PeerID, bool) {

	if len(instances) == 0 || len(providers) != len(instances) {
		return nil, false
	}
	chosen := make([]topology.PeerID, len(instances))
	for k := range instances {
		if len(providers[k]) == 0 {
			return nil, false
		}
		chosen[k] = pick(providers[k])
	}
	return chosen, true
}
