package netproto_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// diffPeers is the grid size of the sim ↔ prototype differential: peer 0
// is the user and provides nothing; every instance gets two providers
// among the others.
const diffPeers = 8

// diffTopology is the in-memory grid's network: the default capacity
// range, and links of 10 Mbps only, above every catalog instance's
// OutKbps, so bandwidth never binds (the prototype measures none).
func diffTopology(seed uint64) topology.Config {
	cfg := topology.Default(seed, diffPeers)
	cfg.BandwidthClasses = []float64{10000}
	return cfg
}

// diffProviders places each instance on two distinct providers.
func diffProviders(insts []*service.Instance, seed uint64) map[*service.Instance][]int {
	rng := xrand.New(seed).SplitLabeled("providers")
	out := make(map[*service.Instance][]int)
	for _, in := range insts {
		a := 1 + rng.Intn(diffPeers-1)
		b := 1 + (a-1+1+rng.Intn(diffPeers-2))%(diffPeers-1)
		out[in] = []int{a, b}
	}
	return out
}

// simGrid is a fresh in-memory grid holding insts, with runtime recovery
// on and a tracer for its one request.
type simGrid struct {
	agg *core.Aggregator
	net *topology.Network
	tr  *obs.Tracer
	buf *bytes.Buffer
}

func newSimGrid(t *testing.T, insts []*service.Instance, provs map[*service.Instance][]int, seed uint64) *simGrid {
	t.Helper()
	net, err := topology.New(diffTopology(seed))
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New(registry.Config{}, seed)
	for i := 0; i < diffPeers; i++ {
		if err := reg.AddPeer(topology.PeerID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range insts {
		for _, p := range provs[in] {
			if err := reg.Register(topology.PeerID(p), in, topology.PeerID(p), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	engine := eventsim.New()
	probes := probe.NewManager(probe.Config{}, net)
	sel, err := selection.New(selection.DefaultConfig(), probes, xrand.New(seed).SplitLabeled("selection"))
	if err != nil {
		t.Fatal(err)
	}
	g := &simGrid{net: net, buf: &bytes.Buffer{}}
	g.tr = obs.NewTracer(g.buf, engine.Now)
	g.agg = &core.Aggregator{
		Registry: reg, Sessions: session.NewManager(net, engine), PhiSelector: sel,
		RandomSelector: selection.NewRandom(xrand.New(seed)), FixedSelector: selection.NewFixed(),
		RNG: xrand.New(seed), Spans: obs.NewSpans(g.tr, seed), ReqID: 1,
	}
	g.agg.Sessions.Recovery = g.agg.Recover
	return g
}

// simAggregate runs one request with the QSA strategy on a fresh
// in-memory grid holding insts and returns the session, the error and
// the paths it composed, one per attempt.
func simAggregate(t *testing.T, insts []*service.Instance, provs map[*service.Instance][]int,
	seed uint64, req *service.Request) (*session.Session, error, []string) {

	t.Helper()
	g := newSimGrid(t, insts, provs, seed)
	g.agg.ReqSpan = g.agg.Spans.Root(1).Context()
	sess, err := g.agg.Aggregate(0, req, 0, core.StrategyQSA)
	return sess, err, composedPaths(t, g.tr, g.buf)
}

// composedPaths reads the compose spans a tracer wrote into buf: one
// entry per attempt, the path or "fail".
func composedPaths(t *testing.T, tr *obs.Tracer, buf *bytes.Buffer) []string {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, ev := range evs {
		if ev.Kind == obs.KindSpan && ev.Stage == obs.StageCompose {
			if ev.OK {
				paths = append(paths, fmt.Sprint(ev.Path))
			} else {
				paths = append(paths, "fail")
			}
		}
	}
	return paths
}

// TestSimPrototypeDifferential runs the same requests over the same
// catalog on both front ends — core.Aggregator over an in-memory grid
// and netproto.Peer.Aggregate over a loopback overlay on the zero-fault
// in-process fabric — for 12 seeds, one request per application and QoS
// level, both with core.StrategyQSA. Each seed runs two catalog slices:
// the plain one, and a retry slice where every service gains a
// near-free twin offered only by the user's own peer, so a path ending
// in a twin fails selection at attempt 0 on both front ends (a hop never
// selects its own host) and recomposes. Both front ends must fail
// discovery alike, and compose the same path at every attempt both
// made. Then, per seed, one host crashes under a long session admitted
// on the same hosts on both: the simulator departs the peer
// (Sessions.PeerDeparted), the prototype's fabric crashes it with the
// initiator monitoring; where both recover, the replacement hosts must
// be equal.
//
// Permitted divergences, each a difference in what the front ends
// measure or reach rather than in the pipeline:
//
//   - Host choice. Φ's network term is a bandwidth oracle in the
//     simulator and an RTT probe in the prototype (DESIGN §6); the
//     simulator's uptime is virtual and its probe table is capped at M
//     entries, falling back to a random pick among unprobed candidates.
//     So the hosts differ, and with them what depends on the hosts: the
//     next hop's self-exclusion (a hop never selects its own host) and
//     whether two components placed on one host both fit at admission.
//     A request may therefore succeed on one front end and fail at
//     selection or admission on the other, never earlier; a failure
//     recomposes, so one front end may make more attempts than the
//     other. Their attempts agree as far as both went.
//   - A dead downstream neighbour. The simulator still selects at a
//     departed peer (its registry node and probe table outlive the
//     departure until the churn driver removes them); the prototype
//     cannot reach a crashed one, so its monitor repairs from the user
//     side back. When one host carries two adjacent components the two
//     orders can re-home them differently, so the crash picks a host
//     that carries exactly one component.
//
// Bandwidth is not a divergence here: the simulator's links are all
// above every instance's OutKbps (diffTopology). Peer capacities are
// mirrored, so both see the same feasible set at the user's hop. Every
// service also carries a twin of its first instance with ID "#10", which
// sorts between "#1" and "#2": QCS ties occur, and a front end whose
// layers were ordered differently would break them differently. A path
// difference is a bug.
func TestSimPrototypeDifferential(t *testing.T) {
	var compared, succeeded, diverged, ties, retried, crashed, recovered int
	for seed := uint64(1); seed <= 12; seed++ {
		cc := catalog.Default(seed)
		cc.Apps, cc.MaxHops, cc.MinInstances, cc.MaxInstances = 3, 3, 2, 4
		cat, err := catalog.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		insts := append([]*service.Instance(nil), cat.AllInstances()...)
		var selfTwins []*service.Instance
		for _, name := range cat.ServiceNames() {
			first := cat.InstancesOf(name)[0]
			twin := *first
			twin.ID = string(name) + "#10"
			insts = append(insts, &twin)
			free := *first
			free.ID = string(name) + "#11"
			free.R = resource.Vec2(first.R[resource.CPU]/100, first.R[resource.Memory]/100)
			free.OutKbps = first.OutKbps / 100
			selfTwins = append(selfTwins, &free)
		}
		provs := diffProviders(insts, seed)
		for _, in := range selfTwins {
			provs[in] = []int{0}
		}
		var buf bytes.Buffer
		begin := time.Now()
		tr := obs.NewTracer(&buf, func() float64 { return time.Since(begin).Seconds() })
		_, peers, index := diffOverlay(t, seed, insts, provs, tr)
		// crashReq is the first request admitted on the same hosts by both.
		var crashReq *service.Request
		for _, slice := range []struct {
			name  string
			insts []*service.Instance
		}{{"plain", insts}, {"retry", append(append([]*service.Instance(nil), insts...), selfTwins...)}} {
			if slice.name == "retry" {
				for _, in := range selfTwins {
					if err := peers[0].Provide(in); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, app := range cat.Apps {
				for _, lvl := range qos.Levels {
					req := &service.Request{App: app, Level: lvl, UserQoS: cat.UserQoS(nil, lvl), Duration: 1}
					sess, simErr, simPaths := simAggregate(t, slice.insts, provs, seed, req)
					// A millisecond session: its reservations expire before the
					// next request, as the simulator's fresh grid has none.
					plan, netErr := peers[0].Aggregate(app.Path, req.UserQoS, time.Millisecond)
					if netErr == nil {
						waitSession(t, peers[0], plan.SessionID, netproto.StatusCompleted)
					}
					netPaths := composedPaths(t, tr, &buf)
					buf.Reset()
					name := fmt.Sprintf("seed %d %s %s %s", seed, slice.name, app.ID, lvl)
					if netErr != nil && core.StageOf(netErr) == core.StageNone {
						t.Fatalf("%s: prototype failure carries no stage: %v", name, netErr)
					}
					simStage, netStage := core.StageOf(simErr), core.StageOf(netErr)
					if simStage == core.StageDiscovery || netStage == core.StageDiscovery {
						if simStage != netStage {
							t.Errorf("%s: simulator %v, prototype %v", name, simErr, netErr)
						}
						continue
					}
					n := min(len(simPaths), len(netPaths))
					if !slices.Equal(simPaths[:n], netPaths[:n]) {
						t.Errorf("%s: simulator composed %v, prototype %v", name, simPaths, netPaths)
					}
					if simPaths[n-1] == "fail" {
						continue // both failed composition at the same attempt
					}
					compared++
					if final := simPaths[n-1]; strings.Contains(final, "#0") || strings.Contains(final, "#10") {
						ties++
					}
					if n > 1 {
						retried++
					}
					switch {
					case len(simPaths) != len(netPaths) || simStage != netStage:
						diverged++ // host choice, permitted above
					case simErr == nil:
						succeeded++
						if crashReq == nil && slice.name == "plain" && slices.Equal(simHosts(sess), netHosts(plan, index)) {
							crashReq = req
						}
					}
					waitReleased(t, peers)
				}
			}
		}
		if crashReq == nil {
			continue
		}
		c, r := crashOne(t, seed, insts, provs, crashReq)
		crashed += c
		recovered += r
	}
	t.Logf("%d requests composed on both front ends (%d through a tied instance, %d recomposed on both), %d admitted on both, %d diverged after composition; %d crashes, %d recovered on both",
		compared, ties, retried, succeeded, diverged, crashed, recovered)
	if compared < 60 || ties < 10 || retried < 10 || succeeded < compared/2 || crashed < 6 || recovered < 3 {
		t.Fatalf("the sweep compared %d paths, %d recomposed, admitted %d on both, crashed %d hosts and recovered %d on both: too few to mean anything",
			compared, retried, succeeded, crashed, recovered)
	}
}

// diffOverlay starts the prototype's side of the differential on a fresh
// fabric: diffPeers peers with the simulator's capacities, providing
// insts as provs places them, peer 0 the traced and monitoring
// initiator. It returns the fabric, the peers and the address → index
// table.
func diffOverlay(t *testing.T, seed uint64, insts []*service.Instance, provs map[*service.Instance][]int,
	tr *obs.Tracer) (*faults.Fabric, []*netproto.Peer, map[string]int) {

	t.Helper()
	net, err := topology.New(diffTopology(seed))
	if err != nil {
		t.Fatal(err)
	}
	fab, err := faults.New(faults.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	peers := chaosCluster(t, fab, diffPeers, 0, func(i int, cfg *netproto.Config) {
		p, err := net.Peer(topology.PeerID(i))
		if err != nil {
			t.Fatal(err)
		}
		cfg.CPU, cfg.Memory = p.Capacity[0], p.Capacity[1]
		// Fresh probes at the monitor, and a crashed peer given up on
		// after two quick dials.
		cfg.ProbeCacheTTL = time.Millisecond
		cfg.Retry = netproto.RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
		if i == 0 {
			cfg.Tracer, cfg.MonitorInterval = tr, 2*time.Millisecond
		}
	})
	for _, in := range insts {
		for _, p := range provs[in] {
			if err := peers[p].Provide(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	index := make(map[string]int, len(peers))
	for i, p := range peers {
		index[p.Addr()] = i
	}
	return fab, peers, index
}

// crashOne admits req as a long session on both front ends, on a fresh
// grid and overlay holding insts, and, if both placed it on the same
// hosts, crashes the first host that carries one component and compares
// the repair. It reports whether it crashed a host and whether both
// front ends recovered.
func crashOne(t *testing.T, seed uint64, insts []*service.Instance, provs map[*service.Instance][]int,
	req *service.Request) (int, int) {

	t.Helper()
	fab, peers, index := diffOverlay(t, seed, insts, provs, nil)
	g := newSimGrid(t, insts, provs, seed)
	sess, err := g.agg.Aggregate(0, req, 0, core.StrategyQSA)
	if err != nil {
		t.Fatalf("seed %d: the crash request no longer admits in the simulator: %v", seed, err)
	}
	plan, err := peers[0].Aggregate(req.App.Path, req.UserQoS, 5*time.Second)
	if err != nil {
		return 0, 0 // the prototype's host choice moved; nothing to compare
	}
	hosts := simHosts(sess)
	if !slices.Equal(hosts, netHosts(plan, index)) {
		return 0, 0
	}
	victim := -1
	for _, h := range hosts {
		carries := 0
		for _, o := range hosts {
			if o == h {
				carries++
			}
		}
		if carries == 1 {
			victim = h
			break
		}
	}
	if victim < 0 {
		return 0, 0
	}
	if err := g.net.Depart(topology.PeerID(victim), 0.5); err != nil {
		t.Fatal(err)
	}
	g.agg.Sessions.PeerDeparted(topology.PeerID(victim), 0.5)
	fab.Crash(nodeName(victim))
	var netHostsNow []int
	netOK := false
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if st, _ := peers[0].SessionStatus(plan.SessionID); st == netproto.StatusFailed {
			break
		}
		now, _ := peers[0].SessionHosts(plan.SessionID)
		netHostsNow = netHosts(&netproto.Plan{Peers: now}, index)
		if !slices.Contains(netHostsNow, victim) {
			netOK = true
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: the prototype neither recovered nor failed the session on crashed peer %d", seed, victim)
		}
	}
	simOK := sess.State == session.Active
	if simOK && netOK && !slices.Equal(simHosts(sess), netHostsNow) {
		t.Errorf("seed %d: crashed peer %d of %v; simulator re-homed onto %v, prototype onto %v",
			seed, victim, hosts, simHosts(sess), netHostsNow)
	}
	if simOK != netOK {
		t.Errorf("seed %d: crashed peer %d of %v; simulator recovered %v, prototype %v", seed, victim, hosts, simOK, netOK)
	}
	if simOK && netOK {
		return 1, 1
	}
	return 1, 0
}

// simHosts returns a session's hosts as peer indices.
func simHosts(s *session.Session) []int {
	out := make([]int, len(s.Peers))
	for i, p := range s.Peers {
		out[i] = int(p)
	}
	return out
}

// netHosts returns a plan's hosts as peer indices.
func netHosts(plan *netproto.Plan, index map[string]int) []int {
	out := make([]int, len(plan.Peers))
	for i, a := range plan.Peers {
		out[i] = index[a]
	}
	return out
}

// waitSession polls until the initiator reports sid in state want.
func waitSession(t *testing.T, p *netproto.Peer, sid string, want netproto.SessionStatus) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st, _ := p.SessionStatus(sid); st == want {
			return
		}
	}
	t.Fatalf("session %s never became %s", sid, want)
}

// waitReleased polls until no peer holds a reservation.
func waitReleased(t *testing.T, peers []*netproto.Peer) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		held := 0
		for _, p := range peers {
			held += p.ActiveSessions()
		}
		if held == 0 {
			return
		}
	}
	t.Fatal("millisecond sessions still hold reservations after 5 s")
}

// TestAggregateFailuresCarryStage: every way Peer.Aggregate can fail is
// a *core.ErrAggregation naming its stage, so callers and the trace
// attribute prototype failures exactly as simulator ones.
func TestAggregateFailuresCarryStage(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	peers := chaosCluster(t, fab, 4, 100, nil)
	for i, ins := range map[int][]*service.Instance{
		1: {chaosInst("a#0", "a", "F", "F", 60), chaosInst("c#0", "c", "F", "F", 60),
			chaosInst("src#0", "src", "RAW", "MPEG", 10), chaosInst("big#0", "big", "F", "F", 500)},
		2: {chaosInst("b#0", "b", "F", "F", 10), chaosInst("snk#0", "snk", "AVI", "SCREEN", 10),
			chaosInst("big#0", "big", "F", "F", 500)},
	} {
		for _, in := range ins {
			if err := peers[i].Provide(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		path []service.Name
		want core.Stage
	}{
		{nil, core.StageDiscovery},
		{[]service.Name{"a", "nobody"}, core.StageDiscovery},
		{[]service.Name{"src", "snk"}, core.StageCompose},
		{[]service.Name{"big"}, core.StageSelection},
		{[]service.Name{"a", "b", "c"}, core.StageAdmission}, // a and c both land on peer 1
	} {
		_, err := peers[0].Aggregate(c.path, chaosQoS, time.Minute)
		if got := core.StageOf(err); got != c.want {
			t.Errorf("path %v: stage %v (%v), want %v", c.path, got, err, c.want)
		}
	}
}
