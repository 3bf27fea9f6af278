package session

import (
	"fmt"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/topology"
)

func inst(r, b float64) *service.Instance {
	return &service.Instance{
		ID:      "svc#0",
		Service: "svc",
		Qin:     qos.MustVector(qos.Sym("format", "M")),
		Qout:    qos.MustVector(qos.Sym("format", "A")),
		R:       resource.Vec2(r, r),
		OutKbps: b,
	}
}

type fixture struct {
	net    *topology.Network
	engine *eventsim.Engine
	mgr    *Manager
}

func newFixture(t *testing.T, peers int) *fixture {
	t.Helper()
	net, err := topology.New(topology.Default(1, peers))
	if err != nil {
		t.Fatal(err)
	}
	engine := eventsim.New()
	return &fixture{net: net, engine: engine, mgr: NewManager(net, engine)}
}

func ids(xs ...int) []topology.PeerID {
	out := make([]topology.PeerID, len(xs))
	for i, x := range xs {
		out[i] = topology.PeerID(x)
	}
	return out
}

// fullyAvailable asserts every peer's ledger and the bandwidth ledger are
// back to pristine state — the conservation invariant after all sessions
// end.
func (f *fixture) fullyAvailable(t *testing.T) {
	t.Helper()
	f.net.AlivePeers(func(p *topology.Peer) {
		av := p.Ledger.Available()
		if av[0] != p.Capacity[0] || av[1] != p.Capacity[1] {
			t.Fatalf("peer %d leaked reservations: %v of %v", p.ID, av, p.Capacity)
		}
	})
	if n := f.net.BandwidthLedger().ActivePairs(); n != 0 {
		t.Fatalf("bandwidth ledger leaked %d pairs", n)
	}
}

func TestAdmitReservesAndCompletes(t *testing.T) {
	f := newFixture(t, 10)
	instances := []*service.Instance{inst(10, 50), inst(20, 50)}
	var ended *Session
	f.mgr.OnEnd = func(s *Session) { ended = s }
	s, err := f.mgr.Admit(0, instances, ids(1, 2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.State != Active || f.mgr.Active() != 1 {
		t.Fatalf("state = %v, active = %d", s.State, f.mgr.Active())
	}
	p1 := f.net.MustPeer(1)
	if got := p1.Ledger.Available(); got[0] != p1.Capacity[0]-10 {
		t.Fatalf("component reservation missing: %v", got)
	}
	// Bandwidth edges: 1→2 and 2→user(0).
	bw := f.net.BandwidthLedger()
	if bw.Available(1, 2) != f.net.Bandwidth(1, 2)-50 {
		t.Fatal("edge 1→2 not reserved")
	}
	if bw.Available(2, 0) != f.net.Bandwidth(2, 0)-50 {
		t.Fatal("edge 2→user not reserved")
	}

	f.engine.RunUntil(5)
	if s.State != Completed || ended != s {
		t.Fatalf("state = %v after duration", s.State)
	}
	if f.mgr.Active() != 0 {
		t.Fatal("session not deregistered")
	}
	f.fullyAvailable(t)
	c := f.mgr.Counters()
	if c.Admitted != 1 || c.Completed != 1 || c.Failed != 0 || c.Rejected != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestAdmitRejectsOnResources(t *testing.T) {
	f := newFixture(t, 10)
	p1 := f.net.MustPeer(1)
	p1.Ledger.Reserve(p1.Capacity) // fully loaded
	_, err := f.mgr.Admit(0, []*service.Instance{inst(10, 10)}, ids(1), 5)
	if err == nil {
		t.Fatal("admission must fail on loaded peer")
	}
	p1.Ledger.Release(p1.Capacity) // drop the test's own load
	f.fullyAvailable(t)
	if f.mgr.Counters().Rejected != 1 {
		t.Fatalf("counters = %+v", f.mgr.Counters())
	}
}

func TestAdmitRejectsOnBandwidthWithRollback(t *testing.T) {
	f := newFixture(t, 30)
	// Find a pair (a, user) with only 56 kbps and demand more.
	var a topology.PeerID = -1
	for p := 1; p < 30; p++ {
		if f.net.Bandwidth(topology.PeerID(p), 0) == 56 {
			a = topology.PeerID(p)
			break
		}
	}
	if a < 0 {
		t.Skip("no 56 kbps pair to user in sample")
	}
	_, err := f.mgr.Admit(0, []*service.Instance{inst(10, 500)}, []topology.PeerID{a}, 5)
	if err == nil {
		t.Fatal("admission must fail on thin edge")
	}
	// The component reservation made before the edge failure must be
	// rolled back.
	f.fullyAvailable(t)
}

func TestAdmitValidation(t *testing.T) {
	f := newFixture(t, 5)
	if _, err := f.mgr.Admit(0, nil, nil, 5); err == nil {
		t.Fatal("empty path must be rejected")
	}
	if _, err := f.mgr.Admit(0, []*service.Instance{inst(1, 1)}, ids(1, 2), 5); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	if _, err := f.mgr.Admit(0, []*service.Instance{inst(1, 1)}, ids(1), 0); err == nil {
		t.Fatal("zero duration must be rejected")
	}
	f.net.Depart(3, 0)
	if _, err := f.mgr.Admit(3, []*service.Instance{inst(1, 1)}, ids(1), 5); err == nil {
		t.Fatal("dead user must be rejected")
	}
	if _, err := f.mgr.Admit(0, []*service.Instance{inst(1, 1)}, ids(3), 5); err == nil {
		t.Fatal("dead host must be rejected")
	}
	if f.mgr.Counters().Rejected != 5 {
		t.Fatalf("counters = %+v", f.mgr.Counters())
	}
}

func TestPeerDepartureFailsSession(t *testing.T) {
	f := newFixture(t, 10)
	instances := []*service.Instance{inst(10, 50), inst(20, 50)}
	s, err := f.mgr.Admit(0, instances, ids(1, 2), 30)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.RunUntil(10)
	f.net.Depart(2, 10)
	f.mgr.PeerDeparted(2, 10)
	if s.State != Failed {
		t.Fatalf("state = %v, want failed", s.State)
	}
	f.engine.RunUntil(100)
	if f.mgr.Counters().Completed != 0 || f.mgr.Counters().Failed != 1 {
		t.Fatalf("counters = %+v", f.mgr.Counters())
	}
	f.fullyAvailable(t)
}

func TestUserDepartureFailsSession(t *testing.T) {
	f := newFixture(t, 10)
	s, _ := f.mgr.Admit(0, []*service.Instance{inst(10, 50)}, ids(1), 30)
	f.net.Depart(0, 5)
	f.mgr.PeerDeparted(0, 5)
	if s.State != Failed {
		t.Fatal("session must fail when the user departs")
	}
	f.fullyAvailable(t)
}

func TestUnrelatedDepartureHarmless(t *testing.T) {
	f := newFixture(t, 10)
	s, _ := f.mgr.Admit(0, []*service.Instance{inst(10, 50)}, ids(1), 30)
	f.net.Depart(7, 5)
	f.mgr.PeerDeparted(7, 5)
	if s.State != Active {
		t.Fatal("unrelated departure must not touch the session")
	}
	f.engine.RunUntil(30)
	if s.State != Completed {
		t.Fatal("session must still complete")
	}
	f.fullyAvailable(t)
}

func TestRecoveryReplacesComponent(t *testing.T) {
	f := newFixture(t, 10)
	f.mgr.Recovery = func(s *Session, k int, now float64) (topology.PeerID, bool) {
		return 5, true
	}
	instances := []*service.Instance{inst(10, 50), inst(20, 50)}
	s, err := f.mgr.Admit(0, instances, ids(1, 2), 30)
	if err != nil {
		t.Fatal(err)
	}
	f.engine.RunUntil(10)
	f.net.Depart(1, 10)
	f.mgr.PeerDeparted(1, 10)
	if s.State != Active {
		t.Fatalf("state = %v, recovery should keep the session alive", s.State)
	}
	if s.Peers[0] != 5 || s.Recovered != 1 {
		t.Fatalf("peers = %v, recovered = %d", s.Peers, s.Recovered)
	}
	p5 := f.net.MustPeer(5)
	if got := p5.Ledger.Available(); got[0] != p5.Capacity[0]-10 {
		t.Fatal("replacement host has no reservation")
	}
	f.engine.RunUntil(30)
	if s.State != Completed {
		t.Fatalf("state = %v", s.State)
	}
	c := f.mgr.Counters()
	if c.Recoveries != 1 || c.Completed != 1 || c.Failed != 0 {
		t.Fatalf("counters = %+v", c)
	}
	f.fullyAvailable(t)
}

func TestRecoveryFailureFailsSession(t *testing.T) {
	f := newFixture(t, 10)
	f.mgr.Recovery = func(s *Session, k int, now float64) (topology.PeerID, bool) {
		return -1, false
	}
	s, _ := f.mgr.Admit(0, []*service.Instance{inst(10, 50)}, ids(1), 30)
	f.net.Depart(1, 5)
	f.mgr.PeerDeparted(1, 5)
	if s.State != Failed {
		t.Fatal("failed recovery must fail the session")
	}
	f.fullyAvailable(t)
}

func TestRecoveryToLoadedPeerFails(t *testing.T) {
	f := newFixture(t, 10)
	p5 := f.net.MustPeer(5)
	p5.Ledger.Reserve(p5.Capacity) // replacement target is full
	f.mgr.Recovery = func(s *Session, k int, now float64) (topology.PeerID, bool) {
		return 5, true
	}
	s, _ := f.mgr.Admit(0, []*service.Instance{inst(10, 50)}, ids(1), 30)
	f.net.Depart(1, 5)
	f.mgr.PeerDeparted(1, 5)
	if s.State != Failed {
		t.Fatal("recovery onto a full peer must fail the session")
	}
	// Crucially: no reservation leaks and no panic from double release.
	p5.Ledger.Release(p5.Capacity)
	f.fullyAvailable(t)
}

func TestCoLocatedComponentsShareNoEdge(t *testing.T) {
	f := newFixture(t, 10)
	instances := []*service.Instance{inst(10, 50), inst(10, 50)}
	// Both components on peer 1: the 1→1 edge needs no bandwidth.
	s, err := f.mgr.Admit(0, instances, ids(1, 1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if f.net.BandwidthLedger().ActivePairs() != 1 { // only 1→user
		t.Fatalf("ActivePairs = %d, want 1", f.net.BandwidthLedger().ActivePairs())
	}
	f.engine.RunUntil(5)
	if s.State != Completed {
		t.Fatal("co-located session must complete")
	}
	f.fullyAvailable(t)
}

func TestManySessionsConservation(t *testing.T) {
	f := newFixture(t, 50)
	instances := []*service.Instance{inst(5, 10), inst(5, 10), inst(5, 10)}
	admitted := 0
	for i := 0; i < 200; i++ {
		u := topology.PeerID(i % 50)
		a := topology.PeerID((i + 7) % 50)
		b := topology.PeerID((i + 13) % 50)
		c := topology.PeerID((i + 29) % 50)
		if _, err := f.mgr.Admit(u, instances, []topology.PeerID{a, b, c}, float64(1+i%10)); err == nil {
			admitted++
		}
		f.engine.RunUntil(float64(i) / 10)
	}
	f.engine.Run()
	if f.mgr.Active() != 0 {
		t.Fatalf("%d sessions leaked", f.mgr.Active())
	}
	f.fullyAvailable(t)
	c := f.mgr.Counters()
	if int(c.Admitted) != admitted || c.Admitted != c.Completed {
		t.Fatalf("counters = %+v, admitted = %d", c, admitted)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Active: "active", Completed: "completed", Failed: "failed", State(7): "State(7)"} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q", int(s), got)
		}
	}
}

func TestDepartureOfMultiComponentHost(t *testing.T) {
	// Peer 2 hosts two components; with recovery both must be replaced.
	f := newFixture(t, 10)
	replacements := []topology.PeerID{5, 6}
	i := 0
	f.mgr.Recovery = func(s *Session, k int, now float64) (topology.PeerID, bool) {
		r := replacements[i%2]
		i++
		return r, true
	}
	// Small bandwidth demand: edges 2→3 and 3→2 share one unordered pair
	// whose bottleneck class can be as low as 56 kbps.
	instances := []*service.Instance{inst(10, 5), inst(10, 5), inst(10, 5)}
	s, err := f.mgr.Admit(0, instances, ids(2, 3, 2), 30)
	if err != nil {
		t.Fatal(err)
	}
	f.net.Depart(2, 5)
	f.mgr.PeerDeparted(2, 5)
	if s.State != Active || s.Recovered != 2 {
		t.Fatalf("state = %v, recovered = %d", s.State, s.Recovered)
	}
	if s.Peers[0] == 2 || s.Peers[2] == 2 {
		t.Fatalf("peers = %v still reference the departed host", s.Peers)
	}
	f.engine.RunUntil(30)
	if s.State != Completed {
		t.Fatalf("state = %v", s.State)
	}
	f.fullyAvailable(t)
}

func TestActiveGaugeTracksSessions(t *testing.T) {
	f := newFixture(t, 10)
	g := obs.NewRegistry().Gauge("session.active")
	f.mgr.ActiveGauge = g
	s1, err := f.mgr.Admit(0, []*service.Instance{inst(10, 50)}, ids(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.mgr.Admit(0, []*service.Instance{inst(10, 50)}, ids(2), 9); err != nil {
		t.Fatal(err)
	}
	if g.Value() != 2 {
		t.Fatalf("gauge = %d after two admissions, want 2", g.Value())
	}
	f.engine.RunUntil(5) // s1 completes
	if s1.State != Completed || g.Value() != 1 {
		t.Fatalf("gauge = %d after one completion, want 1", g.Value())
	}
	f.net.MustPeer(2).Alive = false
	f.mgr.PeerDeparted(2, 6) // s2 fails (no recovery wired)
	if g.Value() != 0 {
		t.Fatalf("gauge = %d after failure, want 0", g.Value())
	}
}

// TestPeerDepartedInIDOrderOnJoinedPeer runs sessions on a peer that
// joined after the manager was built, so its session list is grown on
// first use, and completes the oldest first, which reorders the list
// (a removal moves the last session into the gap). The departure must
// still fail the rest in session-ID order and leave nothing indexed or
// reserved.
func TestPeerDepartedInIDOrderOnJoinedPeer(t *testing.T) {
	f := newFixture(t, 10)
	p, err := f.net.Join(0)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for i, dur := range []float64{1, 5, 5, 5} {
		s, err := f.mgr.Admit(0, []*service.Instance{inst(1, 1)}, []topology.PeerID{p.ID}, dur)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			want = append(want, s.ID)
		}
	}
	f.engine.RunUntil(2)
	var got []uint64
	f.mgr.OnEnd = func(s *Session) { got = append(got, s.ID) }
	if err := f.net.Depart(p.ID, 2); err != nil {
		t.Fatal(err)
	}
	f.mgr.PeerDeparted(p.ID, 2)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("departure ended sessions %v, want %v in ID order", got, want)
	}
	if len(f.mgr.byPeer[p.ID]) != 0 || len(f.mgr.byPeer[0]) != 0 || f.mgr.Active() != 0 {
		t.Fatalf("departure left %d, %d sessions indexed and %d active",
			len(f.mgr.byPeer[p.ID]), len(f.mgr.byPeer[0]), f.mgr.Active())
	}
	f.fullyAvailable(t)
}
