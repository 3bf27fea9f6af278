package netproto_test

import (
	"bytes"
	"fmt"
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
func diffProviders(insts []*service.Instance, seed uint64) map[*service.Instance][2]int {
	rng := xrand.New(seed).SplitLabeled("providers")
	out := make(map[*service.Instance][2]int)
	for _, in := range insts {
		a := 1 + rng.Intn(diffPeers-1)
		b := 1 + (a-1+1+rng.Intn(diffPeers-2))%(diffPeers-1)
		out[in] = [2]int{a, b}
	}
	return out
}

// simAggregate runs one request on a fresh in-memory grid holding insts
// and returns the error and the path it composed ("" when it composed
// none).
func simAggregate(t *testing.T, insts []*service.Instance, provs map[*service.Instance][2]int,
	seed uint64, req *service.Request) (error, string) {

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
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, engine.Now)
	agg := &core.Aggregator{
		Registry: reg, Sessions: session.NewManager(net, engine), PhiSelector: sel,
		RandomSelector: selection.NewRandom(xrand.New(seed)), FixedSelector: selection.NewFixed(),
		RNG: xrand.New(seed), Spans: obs.NewSpans(tr, seed), ReqID: 1,
	}
	agg.ReqSpan = agg.Spans.Root(1).Context()
	_, err = agg.Aggregate(0, req, 0, core.Strategy{Compose: core.ComposeQCS, Select: core.SelectPhi})
	return err, composedPath(t, tr, &buf)
}

// composedPath reads the last compose span a tracer wrote into buf.
func composedPath(t *testing.T, tr *obs.Tracer, buf *bytes.Buffer) string {
	t.Helper()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path := ""
	for _, ev := range evs {
		if ev.Kind == obs.KindSpan && ev.Stage == obs.StageCompose {
			path = fmt.Sprint(ev.Path)
		}
	}
	return path
}

// TestSimPrototypeDifferential runs the same requests over the same
// catalog slice on both front ends — core.Aggregator over an in-memory
// grid and netproto.Peer.Aggregate over a loopback overlay on the
// zero-fault in-process fabric — for 12 seeds, one request per
// application and QoS level, both single-shot QCS + Φ. Each request must
// compose the same instance path on both, or fail at the same
// core.StageOf stage up to composition.
//
// Permitted divergences, each a difference in what the front ends
// measure rather than in the pipeline:
//
//   - Host choice. Φ's network term is a bandwidth oracle in the
//     simulator and an RTT probe in the prototype (DESIGN §6); the
//     simulator's uptime is virtual and its probe table is capped at M
//     entries, falling back to a random pick among unprobed candidates.
//     So the hosts differ, and with them what depends on the hosts: the
//     next hop's self-exclusion (a hop never selects its own host) and
//     whether two components placed on one host both fit at admission.
//     A request may therefore succeed on one front end and fail at
//     selection or admission on the other, never earlier.
//
// Bandwidth is not a divergence here: the simulator's links are all
// above every instance's OutKbps (diffTopology). Peer capacities are
// mirrored, so both see the same feasible set at the user's hop. Every
// service also carries a twin of its first instance with ID "#10", which
// sorts between "#1" and "#2": QCS ties occur, and a front end whose
// layers were ordered differently would break them differently. A path
// difference is a bug.
func TestSimPrototypeDifferential(t *testing.T) {
	compared, succeeded, diverged, ties := 0, 0, 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		cc := catalog.Default(seed)
		cc.Apps, cc.MaxHops, cc.MinInstances, cc.MaxInstances = 3, 3, 2, 4
		cat, err := catalog.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		insts := append([]*service.Instance(nil), cat.AllInstances()...)
		for _, name := range cat.ServiceNames() {
			twin := *cat.InstancesOf(name)[0]
			twin.ID = string(name) + "#10"
			insts = append(insts, &twin)
		}
		provs := diffProviders(insts, seed)
		net, err := topology.New(diffTopology(seed))
		if err != nil {
			t.Fatal(err)
		}
		fab, err := faults.New(faults.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		begin := time.Now()
		tr := obs.NewTracer(&buf, func() float64 { return time.Since(begin).Seconds() })
		peers := chaosCluster(t, fab, diffPeers, 0, func(i int, cfg *netproto.Config) {
			p, err := net.Peer(topology.PeerID(i))
			if err != nil {
				t.Fatal(err)
			}
			cfg.CPU, cfg.Memory = p.Capacity[0], p.Capacity[1]
			if i == 0 {
				cfg.Tracer = tr
			}
		})
		for _, in := range insts {
			for _, p := range provs[in] {
				if err := peers[p].Provide(in); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, app := range cat.Apps {
			for _, lvl := range qos.Levels {
				req := &service.Request{App: app, Level: lvl, UserQoS: cat.UserQoS(nil, lvl), Duration: 1}
				simErr, simPath := simAggregate(t, insts, provs, seed, req)
				// A millisecond session: its reservations expire before the
				// next request, as the simulator's fresh grid has none.
				_, netErr := peers[0].Aggregate(app.Path, req.UserQoS, time.Millisecond)
				netPath := composedPath(t, tr, &buf)
				buf.Reset()
				name := fmt.Sprintf("seed %d %s %s", seed, app.ID, lvl)
				if netErr != nil && core.StageOf(netErr) == core.StageNone {
					t.Fatalf("%s: prototype failure carries no stage: %v", name, netErr)
				}
				simStage, netStage := core.StageOf(simErr), core.StageOf(netErr)
				if simStage == core.StageDiscovery || simStage == core.StageCompose ||
					netStage == core.StageDiscovery || netStage == core.StageCompose {
					if simStage != netStage {
						t.Errorf("%s: simulator %v, prototype %v", name, simErr, netErr)
					}
					continue
				}
				compared++
				if strings.Contains(simPath, "#0") || strings.Contains(simPath, "#10") {
					ties++
				}
				if simPath != netPath {
					t.Errorf("%s: simulator composed %s, prototype %s", name, simPath, netPath)
				}
				if simStage != netStage {
					diverged++ // host choice, permitted above
				} else if simErr == nil {
					succeeded++
				}
				waitReleased(t, peers)
			}
		}
	}
	t.Logf("%d requests composed on both front ends (%d through a tied instance), %d admitted on both, %d diverged after composition",
		compared, ties, succeeded, diverged)
	if compared < 30 || ties < 10 || succeeded < compared/2 {
		t.Fatalf("the sweep compared %d paths and admitted %d on both: too few to mean anything", compared, succeeded)
	}
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
