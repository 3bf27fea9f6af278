package netproto

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
)

// goldenOverlay is one pipeline-golden scenario: peer i starts with
// capacity caps[i] (CPU and memory alike), peer 0 initiates with a
// tracer on a counting clock, and provides[i] lists what peer i offers.
type goldenOverlay struct {
	caps     []float64
	provides map[int][]*service.Instance
}

// start brings the overlay up on loopback and returns its peers, the
// initiator's trace buffer and tracer, and the address → "p<i>" table
// that normalizes ports out of every rendered line.
func (g goldenOverlay) start(t *testing.T) ([]*Peer, *bytes.Buffer, *obs.Tracer, *strings.Replacer) {
	t.Helper()
	var buf bytes.Buffer
	var tick float64
	tr := obs.NewTracer(&buf, func() float64 { tick++; return tick })
	peers := make([]*Peer, len(g.caps))
	var names []string
	for i, c := range g.caps {
		cfg := Config{Listen: "127.0.0.1:0", CPU: c, Memory: c, RPCTimeout: 2 * time.Second}
		if i == 0 {
			cfg.Tracer = tr
		}
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[i] = p
		names = append(names, p.Addr(), fmt.Sprintf("p%d", i))
		if i > 0 {
			if err := p.Join(peers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, ins := range g.provides {
		for _, in := range ins {
			if err := peers[i].Provide(in); err != nil {
				t.Fatal(err)
			}
		}
	}
	return peers, &buf, tr, strings.NewReplacer(names...)
}

// renderEvent writes one initiator event with its wall-clock and ID
// fields left out. Candidates are sorted by peer, because the prototype
// lists them in address order and ports are not stable.
func renderEvent(ev obs.Event, norm *strings.Replacer) string {
	var b strings.Builder
	b.WriteString(ev.Kind)
	field := func(name, v string) {
		if v != "" {
			fmt.Fprintf(&b, " %s=%s", name, v)
		}
	}
	field("stage", ev.Stage)
	if ev.Hop != 0 {
		field("hop", fmt.Sprint(ev.Hop))
	}
	field("inst", ev.Inst)
	field("at", ev.At)
	field("peer", ev.Peer)
	field("chosen", ev.Chosen)
	field("mode", ev.Mode)
	if len(ev.Path) > 0 {
		field("path", strings.Join(ev.Path, ","))
	}
	if ev.Cost != 0 {
		field("cost", fmt.Sprintf("%.6g", ev.Cost))
	}
	if ev.Attempt != 0 {
		field("attempt", fmt.Sprint(ev.Attempt))
	}
	if len(ev.Cands) > 0 {
		cands := make([]string, len(ev.Cands))
		for i, c := range ev.Cands {
			cands[i] = norm.Replace(c.Peer) + ":" + c.Reason
		}
		sort.Strings(cands)
		field("cands", strings.Join(cands, ","))
	}
	field("session", ev.Session)
	fmt.Fprintf(&b, " ok=%v", ev.OK)
	if ev.Err != "" {
		field("err", fmt.Sprintf("%q", ev.Err))
	}
	return norm.Replace(b.String())
}

// TestPipelineGolden pins what Peer.Aggregate decides and reports for
// seven scenarios: success, an unknown service, a QoS-inconsistent path,
// no selectable peer, an admission failure that rolls back, a selection
// failure that recomposes, and a traced three-hop select recursion. For each it records the returned
// plan (host indices) or error, the initiator's hop events and its
// spans, with listen ports mapped to peer indices and times
// left out. Candidate capacities differ enough that Φ's RTT term cannot
// reorder them.
func TestPipelineGolden(t *testing.T) {
	mk := func(id string, svc service.Name, r float64) *service.Instance { return loopInst(id, svc, r) }
	long, short := time.Hour, time.Microsecond
	cases := []struct {
		name     string
		overlay  goldenOverlay
		path     []service.Name
		duration time.Duration
	}{
		{
			name: "success",
			overlay: goldenOverlay{caps: []float64{100, 1000, 200, 1000, 200}, provides: map[int][]*service.Instance{
				1: {mk("a#0", "a", 10)}, 2: {mk("a#0", "a", 10)},
				3: {mk("b#0", "b", 10)}, 4: {mk("b#0", "b", 10)},
			}},
			path: []service.Name{"a", "b"}, duration: long,
		},
		{
			name: "unknown-service",
			overlay: goldenOverlay{caps: []float64{100, 1000}, provides: map[int][]*service.Instance{
				1: {mk("a#0", "a", 10)},
			}},
			path: []service.Name{"a", "zzz"}, duration: long,
		},
		{
			name: "qos-inconsistent",
			overlay: goldenOverlay{caps: []float64{100, 1000, 1000}, provides: map[int][]*service.Instance{
				1: {inst("source#0", "source", "RAW", "MPEG", 10, 40)},
				2: {inst("player#0", "player", "AVI", "SCREEN", 10, 30)},
			}},
			path: []service.Name{"source", "player"}, duration: long,
		},
		{
			name: "no-selectable-peer",
			overlay: goldenOverlay{caps: []float64{1000, 100, 200}, provides: map[int][]*service.Instance{
				0: {mk("a#0", "a", 500)}, 1: {mk("a#0", "a", 500)}, 2: {mk("a#0", "a", 500)},
			}},
			path: []service.Name{"a"}, duration: long,
		},
		{
			name: "admission-rollback",
			overlay: goldenOverlay{caps: []float64{100, 100, 1000}, provides: map[int][]*service.Instance{
				1: {mk("a#0", "a", 60), mk("c#0", "c", 60)},
				2: {mk("b#0", "b", 10)},
			}},
			path: []service.Name{"a", "b", "c"}, duration: long,
		},
		{
			// a#0 composes cheaper (no bandwidth term) but fits no
			// provider: attempt 0 fails selection, attempt 1 composes
			// without it and admits a#1 on its one provider.
			name: "retry-recompose",
			overlay: goldenOverlay{caps: []float64{100, 200, 250}, provides: map[int][]*service.Instance{
				1: {inst("a#0", "a", "F", "F", 300, 100), inst("a#1", "a", "F", "F", 10, 6100)},
				2: {inst("a#0", "a", "F", "F", 300, 100)},
			}},
			path: []service.Name{"a"}, duration: long,
		},
		{
			name: "traced-select-recursion",
			overlay: goldenOverlay{caps: []float64{1000, 1000, 300, 1000, 300, 5}, provides: map[int][]*service.Instance{
				0: {mk("c#0", "c", 10)},
				1: {mk("c#0", "c", 10), mk("a#0", "a", 10)},
				2: {mk("c#0", "c", 10), mk("a#0", "a", 10)},
				3: {mk("b#0", "b", 10), mk("a#0", "a", 10)},
				4: {mk("b#0", "b", 10)},
				5: {mk("c#0", "c", 10), mk("b#0", "b", 10)},
			}},
			path: []service.Name{"a", "b", "c"}, duration: short,
		},
	}
	var got strings.Builder
	for _, c := range cases {
		peers, buf, tr, norm := c.overlay.start(t)
		plan, err := peers[0].Aggregate(c.path, qos.MustVector(qos.Range("rate", 10, 1e9)), c.duration)
		fmt.Fprintf(&got, "== %s\n", c.name)
		if err != nil {
			fmt.Fprintf(&got, "error %q\n", norm.Replace(err.Error()))
		} else {
			fmt.Fprintf(&got, "plan %s on %s cost=%.6g\n", strings.Join(plan.Instances, ","),
				norm.Replace(strings.Join(plan.Peers, ",")), plan.Cost)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadEvents(buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if ev.Kind == obs.KindSpan {
				continue
			}
			fmt.Fprintln(&got, renderEvent(ev, norm))
		}
		for _, ev := range evs {
			if ev.Kind == obs.KindSpan {
				fmt.Fprintln(&got, renderEvent(ev, norm))
			}
		}
		if c.name == "admission-rollback" {
			for i, p := range peers {
				fmt.Fprintf(&got, "p%d available %v\n", i, p.Available()[resource.CPU])
			}
		}
	}
	if got.String() != pipelineGolden {
		t.Errorf("pipeline golden differs; got:\n%s", got.String())
	}
}

// pipelineGolden was recorded before Peer.Aggregate became core's
// attempt loop over rpcGrid. The loop changed it in four ways, each
// edited in by hand: a short-uptime winner is mode "informed", as in the
// simulator and the paper ("fallback" is the random pick among unprobed
// candidates, which the prototype never makes); an infeasible candidate
// is "infeasible", not "no-fit"; errors read "core: <stage> failed: …";
// and the admission stage span carries the session ID, as the
// simulator's always did. When the span tree became the one record of a
// request, the decision-event lines (request, compose, reserve, admit,
// fail) were deleted and their fields reappeared on the span lines: the
// compose span's path and cost, the admission span's hosts, and every
// failing span's error; the renderer stopped hiding a span's cost and
// error. Remote reservations are spans in the hosts' own streams. The
// retry-recompose scenario was added when Peer.Aggregate began running
// core.StrategyQSA; single-shot, it ended in a selection error.
const pipelineGolden = `== success
plan a#0,b#0 on p1,p3 cost=0.02
hop hop=2 inst=b#0 at=p0 chosen=p3 mode=informed cands=p3:chosen,p4:short-uptime ok=false
hop hop=1 inst=a#0 at=p3 chosen=p1 mode=informed cands=p1:chosen,p2:short-uptime ok=false
span stage=discovery ok=true
span stage=compose path=a#0,b#0 cost=0.02 ok=true
span stage=selection hop=2 inst=b#0 at=p0 chosen=p3 mode=informed ok=true
span stage=selection ok=true
span stage=admission path=p1,p3 session=p0/1 ok=true
span session=p0/1 ok=true
== unknown-service
error "core: discovery failed: no candidates for \"zzz\""
span stage=discovery ok=false err="core: discovery failed: no candidates for \"zzz\""
span stage=discovery ok=false err="core: discovery failed: no candidates for \"zzz\""
== qos-inconsistent
error "core: compose failed: compose: no QoS-consistent service path"
span stage=discovery ok=true
span stage=compose ok=false err="compose: no QoS-consistent service path"
span stage=compose ok=false err="core: compose failed: compose: no QoS-consistent service path"
== no-selectable-peer
error "core: selection failed: no selectable peer for a#0"
hop hop=1 inst=a#0 at=p0 mode=none cands=p0:self,p1:infeasible,p2:infeasible ok=false
span stage=discovery ok=true
span stage=compose path=a#0 cost=0.336667 ok=true
span stage=selection hop=1 inst=a#0 at=p0 mode=none ok=false
span stage=selection ok=false err="no selectable peer for a#0"
span stage=selection ok=false err="core: selection failed: no selectable peer for a#0"
== admission-rollback
error "core: admission failed: netproto: reserve failed at p1: insufficient resources"
hop hop=3 inst=c#0 at=p0 chosen=p1 mode=informed cands=p1:chosen ok=false
hop hop=2 inst=b#0 at=p1 chosen=p2 mode=informed cands=p2:chosen ok=false
hop hop=1 inst=a#0 at=p2 chosen=p1 mode=informed cands=p1:chosen ok=false
span stage=discovery ok=true
span stage=compose path=a#0,b#0,c#0 cost=0.0966667 ok=true
span stage=selection hop=3 inst=c#0 at=p0 chosen=p1 mode=informed ok=true
span stage=selection ok=true
span stage=admission ok=false err="netproto: reserve failed at p1: insufficient resources"
span stage=admission ok=false err="core: admission failed: netproto: reserve failed at p1: insufficient resources"
p0 available 100
p1 available 100
p2 available 1000
== retry-recompose
plan a#1 on p1 cost=0.21
hop hop=1 inst=a#0 at=p0 mode=none cands=p1:infeasible,p2:infeasible ok=false
hop hop=1 inst=a#1 at=p0 chosen=p1 mode=informed cands=p1:chosen ok=false
span stage=discovery ok=true
span stage=compose path=a#0 cost=0.203333 ok=true
span stage=selection hop=1 inst=a#0 at=p0 mode=none ok=false
span stage=selection ok=false err="no selectable peer for a#0"
span stage=compose path=a#1 cost=0.21 attempt=1 ok=true
span stage=selection hop=1 inst=a#1 at=p0 chosen=p1 mode=informed ok=true
span stage=selection attempt=1 ok=true
span stage=admission path=p1 attempt=1 session=p0/1 ok=true
span session=p0/1 ok=true
== traced-select-recursion
plan a#0,b#0,c#0 on p1,p3,p1 cost=0.03
hop hop=3 inst=c#0 at=p0 chosen=p1 mode=informed cands=p0:self,p1:chosen,p2:lower-phi,p5:infeasible ok=false
hop hop=2 inst=b#0 at=p1 chosen=p3 mode=informed cands=p3:chosen,p4:lower-phi,p5:infeasible ok=false
hop hop=1 inst=a#0 at=p3 chosen=p1 mode=informed cands=p1:chosen,p2:lower-phi,p3:self ok=false
span stage=discovery ok=true
span stage=compose path=a#0,b#0,c#0 cost=0.03 ok=true
span stage=selection hop=3 inst=c#0 at=p0 chosen=p1 mode=informed ok=true
span stage=selection ok=true
span stage=admission path=p1,p3,p1 session=p0/1 ok=true
span session=p0/1 ok=true
`

// TestSelectCountersReported: the prototype counts the whole select.*
// set the simulator does, through the one hop decision.
func TestSelectCountersReported(t *testing.T) {
	reg := obs.NewRegistry()
	peers := make([]*Peer, 3)
	for i, c := range []float64{100, 1000, 50} {
		cfg := Config{Listen: "127.0.0.1:0", CPU: c, Memory: c}
		if i == 0 {
			cfg.Metrics = reg
		}
		p, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[i] = p
		if i > 0 {
			if err := p.Join(peers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range peers[1:] {
		if err := p.Provide(loopInst("a#0", "a", 80)); err != nil {
			t.Fatal(err)
		}
	}
	user := qos.MustVector(qos.Range("rate", 10, 1e9))
	// An hour outlives every peer: peer 1 wins on the short-uptime tier
	// and peer 2 is too small.
	if _, err := peers[0].Aggregate([]service.Name{"a"}, user, time.Hour); err != nil {
		t.Fatal(err)
	}
	// No peer fits b at all.
	for _, p := range peers[1:] {
		if err := p.Provide(loopInst("b#0", "b", 5000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := peers[0].Aggregate([]service.Name{"b"}, user, time.Hour); err == nil {
		t.Fatal("an instance no peer fits was admitted")
	}
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"select.steps": 2, "select.informed": 1, "select.failures": 1,
		"select.uptime_filtered": 1, "select.infeasible": 3, "select.fallbacks": 0,
	} {
		if got := snapCounter(t, snap, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
