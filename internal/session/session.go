// Package session manages the lifecycle of admitted service aggregations:
// resource/bandwidth reservation at setup, scheduled completion, failure
// when a provisioning peer departs mid-session, and — as an extension the
// paper defers to future work (§4.2, §6) — optional runtime recovery that
// re-selects a replacement peer for the failed component.
//
// Admission is all-or-nothing: every component reserves its end-system
// requirement R on its host peer, and every application-level connection
// reserves the upstream component's bandwidth requirement on the peer
// pair, for the whole session duration. Any reservation failure rolls the
// session back and the request is rejected (it counts against ψ).
package session

import (
	"fmt"

	"repro/internal/eventsim"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/topology"
)

// State is a session's lifecycle phase.
type State int

const (
	// Active means the session holds reservations and is running.
	Active State = iota
	// Completed means the session ran for its full duration.
	Completed
	// Failed means a provisioning peer departed and recovery (if any)
	// could not replace it.
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Session is one admitted service aggregation.
type Session struct {
	ID        uint64
	User      topology.PeerID
	Instances []*service.Instance // aggregation-flow order, source first
	Peers     []topology.PeerID   // aligned with Instances
	Start     float64
	Duration  float64
	State     State
	Recovered int      // components replaced by runtime recovery
	Span      obs.Span // open while the session runs; recovery spans are its children

	// Reservation bookkeeping: which component/edge reservations this
	// session currently holds. Indexed like Instances; edge k is the
	// connection out of component k (the last edge ends at the user).
	resHeld  []bool
	edgeHeld []bool

	done *eventsim.Event
}

// hosts reports whether the session has a component on peer p (or p is
// the user-side sink).
func (s *Session) hosts(p topology.PeerID) bool {
	if s.User == p {
		return true
	}
	for _, h := range s.Peers {
		if h == p {
			return true
		}
	}
	return false
}

// edge returns the (from, to, kbps) triple of the session's k-th outgoing
// connection: component k feeds component k+1, the last component feeds
// the user.
func (s *Session) edge(k int) (from, to topology.PeerID, kbps float64) {
	from = s.Peers[k]
	if k == len(s.Peers)-1 {
		to = s.User
	} else {
		to = s.Peers[k+1]
	}
	return from, to, s.Instances[k].OutKbps
}

// RecoveryFunc re-selects a replacement peer for component k of a session
// whose host departed at time now. Returning ok=false fails the session.
// The callback must not touch reservations; the manager handles them.
type RecoveryFunc func(s *Session, k int, now float64) (topology.PeerID, bool)

// Counters tallies session outcomes.
type Counters struct {
	Admitted   uint64
	Rejected   uint64 // admission-time reservation failures
	Completed  uint64
	Failed     uint64 // mid-session failures (departures)
	Recoveries uint64 // successful component replacements
}

// Manager owns all sessions of a run.
type Manager struct {
	net    *topology.Network
	engine *eventsim.Engine

	nextID   uint64
	sessions map[uint64]*Session
	byPeer   map[topology.PeerID]map[uint64]*Session

	// Recovery, when non-nil, is invoked for each component lost to a peer
	// departure before the session is failed.
	Recovery RecoveryFunc
	// OnEnd, when non-nil, is invoked once per admitted session when it
	// completes or fails.
	OnEnd func(s *Session)
	// Obs is the one count of session outcomes; Counters reads it.
	// NewManager gives it private counters; wire it to a registry
	// before the first Admit to publish them.
	Obs obs.SessionCounters
	// Durations, when wired, receives each ended session's achieved
	// lifetime in engine-clock units (admission to completion or
	// failure) — the SLO latency plane's session timer. nil no-ops.
	Durations *obs.LatencyHist
	// ActiveGauge, when wired, mirrors the live session count — the
	// simulator's sibling of the serving plane's queue-depth gauge, so
	// a load report can show reservations held over time. nil no-ops.
	ActiveGauge *obs.Gauge
}

// NewManager returns a session manager bound to the network and engine.
func NewManager(net *topology.Network, engine *eventsim.Engine) *Manager {
	return &Manager{
		net:      net,
		engine:   engine,
		sessions: make(map[uint64]*Session),
		byPeer:   make(map[topology.PeerID]map[uint64]*Session),
		Obs:      obs.NewSessionCounters(obs.NewRegistry()),
	}
}

// Counters returns cumulative outcome counts.
func (m *Manager) Counters() Counters {
	return Counters{
		Admitted:   m.Obs.Admitted.Value(),
		Rejected:   m.Obs.Rejected.Value(),
		Completed:  m.Obs.Completed.Value(),
		Failed:     m.Obs.Failed.Value(),
		Recoveries: m.Obs.Recoveries.Value(),
	}
}

// Active returns the number of live sessions.
func (m *Manager) Active() int { return len(m.sessions) }

// reserveComponent reserves component k's end-system resources on its
// current host. It requires the host to be alive.
func (m *Manager) reserveComponent(s *Session, k int) bool {
	if s.resHeld[k] {
		// lint:allow panic-in-library double reservation means the manager's held-flag bookkeeping is corrupted
		panic("session: double component reservation")
	}
	p, err := m.net.Peer(s.Peers[k])
	if err != nil || !p.Alive {
		return false
	}
	if !p.Ledger.Reserve(s.Instances[k].R) {
		return false
	}
	s.resHeld[k] = true
	return true
}

func (m *Manager) releaseComponent(s *Session, k int) {
	if !s.resHeld[k] {
		return
	}
	// A departed peer's ledger still exists in memory; releasing keeps the
	// session accounting conservative either way.
	if p, err := m.net.Peer(s.Peers[k]); err == nil {
		p.Ledger.Release(s.Instances[k].R)
	}
	s.resHeld[k] = false
}

func (m *Manager) reserveEdge(s *Session, k int) bool {
	if s.edgeHeld[k] {
		// lint:allow panic-in-library double reservation means the manager's held-flag bookkeeping is corrupted
		panic("session: double edge reservation")
	}
	from, to, kbps := s.edge(k)
	if from != to && !m.net.BandwidthLedger().Reserve(int(from), int(to), kbps) {
		return false
	}
	s.edgeHeld[k] = true // co-located edges "hold" a zero reservation
	return true
}

func (m *Manager) releaseEdge(s *Session, k int) {
	if !s.edgeHeld[k] {
		return
	}
	from, to, kbps := s.edge(k)
	if from != to {
		m.net.BandwidthLedger().Release(int(from), int(to), kbps)
	}
	s.edgeHeld[k] = false
}

// releaseAll returns every reservation the session still holds.
func (m *Manager) releaseAll(s *Session) {
	for k := range s.Peers {
		m.releaseEdge(s, k)
		m.releaseComponent(s, k)
	}
}

// Admit attempts to start a session for the composed path on the selected
// peers. On success the session is registered and will complete after dur
// minutes unless a hosting peer departs first. On failure everything is
// rolled back and an error describing the first unsatisfiable reservation
// is returned.
func (m *Manager) Admit(user topology.PeerID, instances []*service.Instance,
	peers []topology.PeerID, dur float64) (*Session, error) {

	if len(instances) == 0 || len(instances) != len(peers) {
		m.Obs.Rejected.Inc()
		return nil, fmt.Errorf("session: %d instances vs %d peers", len(instances), len(peers))
	}
	if dur <= 0 {
		m.Obs.Rejected.Inc()
		return nil, fmt.Errorf("session: non-positive duration %v", dur)
	}
	if up, err := m.net.Peer(user); err != nil || !up.Alive {
		m.Obs.Rejected.Inc()
		return nil, fmt.Errorf("session: user peer %d not alive", user)
	}
	s := &Session{
		ID:        m.nextID,
		User:      user,
		Instances: instances,
		Peers:     append([]topology.PeerID(nil), peers...),
		Start:     m.engine.Now(),
		Duration:  dur,
		resHeld:   make([]bool, len(peers)),
		edgeHeld:  make([]bool, len(peers)),
	}

	fail := func(reason string) (*Session, error) {
		m.releaseAll(s)
		m.Obs.Rejected.Inc()
		return nil, fmt.Errorf("session: %s", reason)
	}
	for k := range peers {
		if !m.reserveComponent(s, k) {
			return fail(fmt.Sprintf("component %d: peer %d cannot host %v", k, peers[k], instances[k].R))
		}
	}
	for k := range peers {
		if !m.reserveEdge(s, k) {
			from, to, kbps := s.edge(k)
			return fail(fmt.Sprintf("edge %d→%d: %v kbps unavailable", from, to, kbps))
		}
	}

	m.nextID++
	m.sessions[s.ID] = s
	m.indexPeer(user, s)
	for _, p := range peers {
		m.indexPeer(p, s)
	}
	s.done = m.engine.After(dur, func() { m.complete(s) })
	m.Obs.Admitted.Inc()
	m.ActiveGauge.Set(int64(len(m.sessions)))
	return s, nil
}

func (m *Manager) indexPeer(p topology.PeerID, s *Session) {
	set, ok := m.byPeer[p]
	if !ok {
		set = make(map[uint64]*Session)
		m.byPeer[p] = set
	}
	set[s.ID] = s
}

func (m *Manager) unindexPeer(p topology.PeerID, s *Session) {
	if set, ok := m.byPeer[p]; ok {
		delete(set, s.ID)
		if len(set) == 0 {
			delete(m.byPeer, p)
		}
	}
}

func (m *Manager) unindex(s *Session) {
	m.unindexPeer(s.User, s)
	for _, p := range s.Peers {
		m.unindexPeer(p, s)
	}
}

func (m *Manager) complete(s *Session) {
	if s.State != Active {
		return
	}
	m.releaseAll(s)
	m.unindex(s)
	delete(m.sessions, s.ID)
	s.State = Completed
	m.Obs.Completed.Inc()
	m.ActiveGauge.Set(int64(len(m.sessions)))
	m.Durations.Observe(m.engine.Now() - s.Start)
	if m.OnEnd != nil {
		m.OnEnd(s)
	}
}

func (m *Manager) failSession(s *Session) {
	if s.State != Active {
		return
	}
	m.releaseAll(s)
	m.unindex(s)
	delete(m.sessions, s.ID)
	s.State = Failed
	s.done.Cancel()
	m.Obs.Failed.Inc()
	m.ActiveGauge.Set(int64(len(m.sessions)))
	m.Durations.Observe(m.engine.Now() - s.Start)
	if m.OnEnd != nil {
		m.OnEnd(s)
	}
}

// PeerDeparted fails (or, with Recovery configured, repairs) every session
// with a component on the departed peer. Call it right after
// Network.Depart.
func (m *Manager) PeerDeparted(p topology.PeerID, now float64) {
	set, ok := m.byPeer[p]
	if !ok {
		return
	}
	// Collect first: recovery and failure mutate the index. Process in ID
	// order for determinism.
	affected := make([]*Session, 0, len(set))
	for _, s := range set {
		affected = append(affected, s)
	}
	for i := 1; i < len(affected); i++ {
		for j := i; j > 0 && affected[j-1].ID > affected[j].ID; j-- {
			affected[j-1], affected[j] = affected[j], affected[j-1]
		}
	}
	for _, s := range affected {
		if s.State != Active || !s.hosts(p) {
			continue
		}
		if s.User == p {
			// The requesting user vanished; nobody to deliver to.
			m.failSession(s)
			continue
		}
		if !m.recoverSession(s, p, now) {
			m.failSession(s)
		}
	}
}

// recoverSession tries to replace every component hosted on the departed
// peer. It reports whether the session survives; when it does not, the
// caller fails the session (held-flag accounting stays consistent either
// way).
func (m *Manager) recoverSession(s *Session, departed topology.PeerID, now float64) bool {
	if m.Recovery == nil {
		return false
	}
	for k := range s.Peers {
		if s.Peers[k] != departed {
			continue
		}
		replacement, ok := m.Recovery(s, k, now)
		if !ok || replacement == departed {
			return false
		}
		if !m.moveComponent(s, k, replacement) {
			return false
		}
		s.Recovered++
		m.Obs.Recoveries.Inc()
	}
	return true
}

// moveComponent re-homes component k onto peer np, adjusting end-system
// and adjacent edge reservations. On failure, released reservations stay
// released (the held flags record exactly what the session still holds)
// and the caller fails the session.
func (m *Manager) moveComponent(s *Session, k int, np topology.PeerID) bool {
	old := s.Peers[k]
	m.releaseComponent(s, k)
	m.releaseEdge(s, k)
	if k > 0 {
		m.releaseEdge(s, k-1)
	}
	s.Peers[k] = np
	if !m.reserveComponent(s, k) {
		s.Peers[k] = old
		return false
	}
	if !m.reserveEdge(s, k) {
		m.releaseComponent(s, k)
		s.Peers[k] = old
		return false
	}
	if k > 0 && !m.reserveEdge(s, k-1) {
		m.releaseEdge(s, k)
		m.releaseComponent(s, k)
		s.Peers[k] = old
		return false
	}
	// Update the peer index: drop the old host (unless it still hosts
	// another component or the user), add the new one.
	if !s.hosts(old) {
		m.unindexPeer(old, s)
	}
	m.indexPeer(np, s)
	return true
}
