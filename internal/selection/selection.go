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
	// UseFeasibility enables the availability/bandwidth pre-filter against
	// the instance requirements.
	UseFeasibility bool
}

// DefaultConfig returns the paper's QSA selector configuration.
func DefaultConfig() Config {
	return Config{
		Weights:        []float64{1.0 / 3, 1.0 / 3, 1.0 / 3},
		UseUptime:      true,
		UseFeasibility: true,
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
// step. Reason uses the obs trace vocabulary: "chosen", "lower-phi",
// "short-uptime", "infeasible", "no-info", "dead", "self".
type CandReport struct {
	Peer   topology.PeerID
	Phi    float64 // zero when filtered before scoring
	Reason string
}

// StepReport describes one hop-by-hop selection step for the decision
// trace: where it ran, what it was selecting, every candidate's fate,
// and how the step was decided ("informed", "fallback", or "none").
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
	stats  Stats

	// Obs, when non-nil, receives a StepReport for every SelectPath
	// step (recovery re-selections are not reported — they have no hop
	// context). Building the reports costs allocations, so leave it nil
	// unless a decision trace is wanted.
	Obs func(StepReport)
	// Counters, when wired to a registry, counts selection work and
	// outcomes; the zero value no-ops.
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
	return &Selector{cfg: cfg, probes: probes, rng: rng}, nil
}

// Stats returns cumulative selection statistics.
func (s *Selector) Stats() Stats { return s.stats }

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
// the trace stream.
func (s *Selector) selectStep(current topology.PeerID, inst *service.Instance,
	candidates []topology.PeerID, dur, now float64, rank probe.Rank,
	report bool) (topology.PeerID, bool, string, []CandReport) {

	s.Counters.Steps.Inc()

	// Dynamic neighbor resolution + probing, bounded by M.
	s.probes.Resolve(current, candidates, rank, now)

	var cands []CandReport
	add := func(c topology.PeerID, reason string, phi float64) int {
		if !report {
			return -1
		}
		cands = append(cands, CandReport{Peer: c, Phi: phi, Reason: reason})
		return len(cands) - 1
	}

	// Two preference tiers (paper §3.3): first candidates whose uptime
	// matches the session duration, then — when no candidate qualifies on
	// uptime, e.g. in a young grid — any feasible candidate. Within a tier
	// the Φ metric decides.
	bestUp, bestAny := topology.PeerID(-1), topology.PeerID(-1)
	phiUp, phiAny := 0.0, 0.0
	upIdx, anyIdx := -1, -1
	var unknown []topology.PeerID
	var unknownIdx []int
	for _, c := range candidates {
		if c == current {
			add(c, "self", 0)
			continue
		}
		info, ok := s.probes.Fresh(current, c, now)
		if !ok {
			s.Counters.NoInfo.Inc()
			unknown = append(unknown, c)
			unknownIdx = append(unknownIdx, add(c, "no-info", 0))
			continue
		}
		if !info.Alive {
			add(c, "dead", 0)
			continue
		}
		if s.cfg.UseFeasibility {
			if !fits(info.Available, inst.R) || info.AvailKbps < inst.OutKbps {
				s.Counters.Infeasible.Inc()
				add(c, "infeasible", 0)
				continue
			}
		}
		phi := s.Phi(info, inst.R, inst.OutKbps)
		if !s.cfg.UseUptime || info.Uptime >= dur {
			ci := add(c, "lower-phi", phi)
			if bestUp < 0 || phi > phiUp {
				bestUp, phiUp, upIdx = c, phi, ci
			}
		} else {
			s.Counters.UptimeFiltered.Inc()
			ci := add(c, "short-uptime", phi)
			if bestAny < 0 || phi > phiAny {
				bestAny, phiAny, anyIdx = c, phi, ci
			}
		}
	}
	mark := func(i int) {
		if report && i >= 0 {
			cands[i].Reason = "chosen"
		}
	}
	if bestUp >= 0 {
		s.stats.Informed++
		s.Counters.Informed.Inc()
		mark(upIdx)
		return bestUp, true, "informed", cands
	}
	if bestAny >= 0 {
		s.stats.Informed++
		s.Counters.Informed.Inc()
		mark(anyIdx)
		return bestAny, true, "informed", cands
	}
	// The paper's fallback: random among candidates whose performance
	// information is not available.
	if len(unknown) > 0 {
		s.stats.Fallbacks++
		s.Counters.Fallbacks.Inc()
		i := s.rng.Intn(len(unknown))
		mark(unknownIdx[i])
		return unknown[i], true, "fallback", cands
	}
	s.stats.Failures++
	s.Counters.Failures.Inc()
	return -1, false, "none", cands
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
			s.Obs(StepReport{
				Hop:    k + 1,
				At:     current,
				Inst:   instances[k].ID,
				Chosen: next,
				Mode:   mode,
				Cands:  cands,
			})
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

	if len(instances) == 0 || len(providers) != len(instances) {
		return nil, false
	}
	chosen := make([]topology.PeerID, len(instances))
	for k := range instances {
		if len(providers[k]) == 0 {
			return nil, false
		}
		chosen[k] = providers[k][r.rng.Intn(len(providers[k]))]
	}
	return chosen, true
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

	if len(instances) == 0 || len(providers) != len(instances) {
		return nil, false
	}
	chosen := make([]topology.PeerID, len(instances))
	for k := range instances {
		if len(providers[k]) == 0 {
			return nil, false
		}
		best := providers[k][0]
		for _, p := range providers[k][1:] {
			if p < best {
				best = p
			}
		}
		chosen[k] = best
	}
	return chosen, true
}
