package netproto

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/wire"
)

func inst(id string, svc service.Name, inFmt, outFmt string, r, kbps float64) *service.Instance {
	return &service.Instance{
		ID:      id,
		Service: svc,
		Qin:     qos.MustVector(qos.Sym("format", inFmt), qos.Range("rate", 0, 40)),
		Qout:    qos.MustVector(qos.Sym("format", outFmt), qos.Range("rate", 20, 25)),
		R:       resource.Vec2(r, r),
		OutKbps: kbps,
	}
}

// cluster starts n peers on loopback, joined into one overlay.
func cluster(t *testing.T, n int, cpu float64) []*Peer {
	t.Helper()
	peers := make([]*Peer, n)
	for i := range peers {
		p, err := Start(Config{Listen: "127.0.0.1:0", CPU: cpu, Memory: cpu,
			RPCTimeout: 2 * time.Second})
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
	return peers
}

var userQoS = qos.MustVector(qos.Range("rate", 10, 1e9))

func TestMembership(t *testing.T) {
	peers := cluster(t, 4, 100)
	// Everyone must eventually know everyone (join announces immediately).
	for i, p := range peers {
		m := p.Members()
		if len(m) != 3 {
			t.Fatalf("peer %d knows %d members, want 3: %v", i, len(m), m)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	in := inst("svc#1", "svc", "A", "B", 10, 50)
	w := ToWire(in)
	back, err := FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID != in.ID || back.Service != in.Service ||
		back.R[0] != in.R[0] || back.OutKbps != in.OutKbps {
		t.Fatalf("round trip mangled the instance: %+v", back)
	}
	if _, ok := back.Qin.Get("format"); !ok {
		t.Fatal("Qin lost its format dimension")
	}
	if _, ok := back.Qout.Get("rate"); !ok {
		t.Fatal("Qout lost its rate dimension")
	}
	if _, err := FromWire(WireInstance{ID: "x", Service: "s",
		Qin: []WireParam{{Name: "r", Lo: 5, Hi: 1}}}); err == nil {
		t.Fatal("inverted wire range must fail")
	}
}

func TestAggregateEndToEnd(t *testing.T) {
	peers := cluster(t, 6, 200)
	src := inst("source#0", "source", "RAW", "MPEG", 50, 40)
	snk := inst("player#0", "player", "MPEG", "SCREEN", 30, 30)
	for _, p := range peers[0:2] {
		if err := p.Provide(src); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers[2:4] {
		if err := p.Provide(snk); err != nil {
			t.Fatal(err)
		}
	}
	user := peers[5]
	plan, err := user.Aggregate([]service.Name{"source", "player"}, userQoS, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Peers) != 2 || plan.Instances[0] != "source#0" || plan.Instances[1] != "player#0" {
		t.Fatalf("plan = %+v", plan)
	}
	srcHosts := map[string]bool{peers[0].Addr(): true, peers[1].Addr(): true}
	if !srcHosts[plan.Peers[0]] {
		t.Fatalf("source hosted on non-provider %s", plan.Peers[0])
	}
	// Reservations are live on the chosen hosts...
	reservedSomewhere := false
	for _, p := range peers {
		if p.ActiveSessions() > 0 {
			reservedSomewhere = true
			av := p.Available()
			if av[0] == 200 {
				t.Fatal("active session but full availability")
			}
		}
	}
	if !reservedSomewhere {
		t.Fatal("no reservations placed")
	}
	// ...and expire after the session duration.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, p := range peers {
			if p.ActiveSessions() != 0 {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, p := range peers {
		if p.ActiveSessions() != 0 {
			t.Fatal("reservation did not expire")
		}
		if av := p.Available(); av[0] != 200 {
			t.Fatalf("capacity not restored: %v", av)
		}
	}
}

func TestQCSPrefersCheapInstanceOverTheWire(t *testing.T) {
	peers := cluster(t, 4, 500)
	cheap := inst("player#cheap", "player", "RAW", "SCREEN", 20, 20)
	pricy := inst("player#pricy", "player", "RAW", "SCREEN", 200, 20)
	peers[1].Provide(cheap)
	peers[1].Provide(pricy)
	peers[2].Provide(cheap)
	plan, err := peers[3].Aggregate([]service.Name{"player"}, userQoS, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Instances[0] != "player#cheap" {
		t.Fatalf("QCS over the wire chose %s", plan.Instances[0])
	}
}

func TestSelectionAvoidsDeadPeer(t *testing.T) {
	peers := cluster(t, 5, 100)
	w := inst("work#0", "work", "A", "B", 30, 10)
	peers[1].Provide(w)
	peers[2].Provide(w)
	// Kill one provider; the other must carry the session.
	if err := peers[1].Close(); err != nil {
		t.Fatal(err)
	}
	plan, err := peers[4].Aggregate([]service.Name{"work"}, qos.MustVector(qos.Range("rate", 0, 1e9)), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Peers[0] != peers[2].Addr() {
		t.Fatalf("selected %s, want the surviving provider", plan.Peers[0])
	}
}

func TestSelectionPrefersIdlePeer(t *testing.T) {
	peers := cluster(t, 4, 100)
	w := inst("work#0", "work", "A", "B", 40, 10)
	peers[1].Provide(w)
	peers[2].Provide(w)
	// Pre-load peer 1 (e.g. local workload) so its availability drops.
	if !peers[1].ReserveLocal(55, 55) {
		t.Fatal("test reservation failed")
	}
	// The user weighs end-system resources only: on loopback the RTT term
	// is pure measurement jitter and would drown the signal under test.
	user, err := Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100,
		RPCTimeout: 2 * time.Second, Weights: []float64{0.5, 0.5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { user.Close() })
	if err := user.Join(peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	plan, err := user.Aggregate([]service.Name{"work"}, qos.MustVector(qos.Range("rate", 0, 1e9)), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Peers[0] != peers[2].Addr() {
		t.Fatalf("Φ selected the loaded peer %s", plan.Peers[0])
	}
}

func TestAdmissionControl(t *testing.T) {
	peers := cluster(t, 3, 100)
	w := inst("work#0", "work", "A", "B", 60, 10)
	peers[1].Provide(w)
	// First session fits, second cannot (60+60 > 100).
	if _, err := peers[2].Aggregate([]service.Name{"work"}, userQoS, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := peers[2].Aggregate([]service.Name{"work"}, userQoS, 2*time.Second); err == nil {
		t.Fatal("over-capacity session admitted")
	}
}

func TestUnknownServiceFails(t *testing.T) {
	peers := cluster(t, 3, 100)
	if _, err := peers[0].Aggregate([]service.Name{"ghost"}, userQoS, time.Second); err == nil {
		t.Fatal("unknown service must fail")
	}
	if _, err := peers[0].Aggregate(nil, userQoS, time.Second); err == nil {
		t.Fatal("empty path must fail")
	}
}

func TestQoSInconsistencyFails(t *testing.T) {
	peers := cluster(t, 3, 100)
	// The only chain produces format B but the player only accepts C.
	a := inst("a#0", "svcA", "RAW", "B", 10, 10)
	b := inst("b#0", "svcB", "C", "SCREEN", 10, 10)
	peers[1].Provide(a)
	peers[1].Provide(b)
	_, err := peers[0].Aggregate([]service.Name{"svcA", "svcB"}, userQoS, time.Second)
	if err == nil || !strings.Contains(err.Error(), "consistent") {
		t.Fatalf("err = %v, want composition failure", err)
	}
}

func TestManualRelease(t *testing.T) {
	peers := cluster(t, 3, 100)
	w := inst("work#0", "work", "A", "B", 60, 10)
	peers[1].Provide(w)
	plan, err := peers[2].Aggregate([]service.Name{"work"}, userQoS, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rpc(TCP{}, plan.Peers[0], request{Type: msgRelease, SessionID: plan.SessionID}, time.Second); err != nil {
		t.Fatal(err)
	}
	if av := peers[1].Available(); av[0] != 100 {
		t.Fatalf("release did not restore capacity: %v", av)
	}
}

func TestMonitorRecoversFromHostFailure(t *testing.T) {
	// The user peer monitors its session; killing the chosen host must
	// re-home the component onto the surviving provider.
	var peers []*Peer
	for i := 0; i < 4; i++ {
		p, err := Start(Config{Listen: "127.0.0.1:0", CPU: 200, Memory: 200,
			RPCTimeout: time.Second, MonitorInterval: 50 * time.Millisecond,
			ProbeCacheTTL: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
		if i > 0 {
			if err := p.Join(peers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	w := inst("work#0", "work", "A", "B", 40, 10)
	peers[1].Provide(w)
	peers[2].Provide(w)
	user := peers[3]
	plan, err := user.Aggregate([]service.Name{"work"}, qos.MustVector(qos.Range("rate", 0, 1e9)), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := user.SessionStatus(plan.SessionID)
	if !ok || st != StatusActive {
		t.Fatalf("status = %v, %v", st, ok)
	}
	// Kill the chosen host.
	var victim, survivor *Peer
	if plan.Peers[0] == peers[1].Addr() {
		victim, survivor = peers[1], peers[2]
	} else {
		victim, survivor = peers[2], peers[1]
	}
	victim.Close()

	deadline := time.Now().Add(3 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		hosts, _ := user.SessionHosts(plan.SessionID)
		if len(hosts) == 1 && hosts[0] == survivor.Addr() {
			recovered = true
			break
		}
		if st, _ := user.SessionStatus(plan.SessionID); st == StatusFailed {
			t.Fatal("session failed although a replacement provider existed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("monitor never re-homed the component")
	}
	if survivor.ActiveSessions() == 0 {
		t.Fatal("replacement host holds no reservation")
	}
	// And the session completes afterwards.
	deadline = time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := user.SessionStatus(plan.SessionID); st == StatusCompleted {
			return
		}
		time.Sleep(30 * time.Millisecond)
	}
	t.Fatal("recovered session did not complete")
}

func TestMonitorFailsWhenNoReplacement(t *testing.T) {
	var peers []*Peer
	for i := 0; i < 3; i++ {
		p, err := Start(Config{Listen: "127.0.0.1:0", CPU: 200, Memory: 200,
			RPCTimeout: time.Second, MonitorInterval: 50 * time.Millisecond,
			ProbeCacheTTL: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers = append(peers, p)
		if i > 0 {
			if err := p.Join(peers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	w := inst("work#0", "work", "A", "B", 40, 10)
	peers[1].Provide(w) // single provider
	user := peers[2]
	plan, err := user.Aggregate([]service.Name{"work"}, qos.MustVector(qos.Range("rate", 0, 1e9)), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	peers[1].Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := user.SessionStatus(plan.SessionID); st == StatusFailed {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("session with no surviving provider never failed")
}

func TestBadCapacityRejected(t *testing.T) {
	if _, err := Start(Config{Listen: "127.0.0.1:0", CPU: -1}); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// TestUnsoundQuantitiesRefused: the binary codec carries any float bits,
// so a reserve with CPU NaN reached the ledger, was admitted, and turned
// the host's Available into NaN, after which any demand fitted. Every
// unsound reserve — and an unsound select or aggregate — must be refused
// with the ledger untouched.
func TestUnsoundQuantitiesRefused(t *testing.T) {
	peers := make([]*Peer, 2)
	for i := range peers {
		p, err := Start(Config{Listen: "127.0.0.1:0", Codec: "binary", CPU: 100, Memory: 100})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		peers[i] = p
	}
	client, host := peers[0], peers[1]
	nan := math.NaN()
	for i, req := range []request{
		{Type: msgReserve, SessionID: "s/1", InstanceID: "a#0", CPU: nan, Memory: 1, DurationSec: 60},
		{Type: msgReserve, SessionID: "s/2", InstanceID: "a#0", CPU: 1e9, Memory: 1, DurationSec: 60},
		{Type: msgReserve, SessionID: "s/3", InstanceID: "a#0", CPU: 1, Memory: 1, DurationSec: nan},
		{Type: msgReserve, SessionID: "s/4", InstanceID: "a#0", CPU: 1, Memory: math.Inf(1), DurationSec: 60},
		{Type: msgReserve, SessionID: "s/5", InstanceID: "a#0", CPU: -1, Memory: 1, DurationSec: 60},
		{Type: msgSelect, Instances: []WireInstance{ToWire(loopInst("a#0", "a", 1))}, DurationSec: nan},
		{Type: msgAggregate, Services: []string{"a"}, MinRate: nan, DurationSec: 60},
		{Type: msgAggregate, Services: []string{"a"}, MinRate: 1, DurationSec: math.Inf(1)},
	} {
		resp, err := client.rpc(host.Addr(), req, 2*time.Second)
		if err == nil || resp == nil || resp.OK {
			t.Errorf("case %d (%s): unsound request answered %+v, %v", i, req.Type, resp, err)
		}
		if av := host.Available(); av[0] != 100 || av[1] != 100 || host.ActiveSessions() != 0 {
			t.Fatalf("case %d (%s): host ledger now %v with %d sessions", i, req.Type, av, host.ActiveSessions())
		}
	}
}

func TestConfigRejectsNegatives(t *testing.T) {
	bad := []Config{
		{CPU: -1},
		{Memory: -1},
		{RPCTimeout: -time.Second},
		{ProbeCacheTTL: -time.Millisecond},
		{MonitorInterval: -time.Minute},
		{Retry: RetryPolicy{Attempts: -1}},
		{Retry: RetryPolicy{BaseDelay: -time.Millisecond}},
		{Retry: RetryPolicy{MaxDelay: -time.Millisecond}},
	}
	for i, cfg := range bad {
		// fillDefaults only replaces zero values: negatives must survive
		// it and be caught by Validate.
		cfg.fillDefaults()
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: fillDefaults+Validate accepted %+v", i, bad[i])
		}
		cfg = bad[i]
		cfg.Listen = "127.0.0.1:0"
		if _, err := Start(cfg); err == nil {
			t.Fatalf("case %d: Start accepted %+v", i, cfg)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var cfg Config
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("zero config invalid after fillDefaults: %v", err)
	}
	if cfg.Transport == nil {
		t.Fatal("no default transport")
	}
	if cfg.Retry.Attempts != 3 || cfg.Retry.BaseDelay <= 0 || cfg.Retry.MaxDelay < cfg.Retry.BaseDelay {
		t.Fatalf("unexpected retry defaults: %+v", cfg.Retry)
	}
}

func TestRetryBackoffBoundedAndDeterministic(t *testing.T) {
	pol := RetryPolicy{Attempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	for attempt := 1; attempt <= 6; attempt++ {
		d := pol.backoff("127.0.0.1:1", "127.0.0.1:2", attempt)
		if d != pol.backoff("127.0.0.1:1", "127.0.0.1:2", attempt) {
			t.Fatalf("attempt %d: backoff not deterministic", attempt)
		}
		if d < 0 || d >= pol.MaxDelay {
			t.Fatalf("attempt %d: backoff %v outside [0, MaxDelay)", attempt, d)
		}
	}
	// The jitter desynchronizes distinct link pairs.
	if pol.backoff("a", "b", 2) == pol.backoff("c", "d", 2) {
		t.Fatal("distinct links share the same jittered backoff")
	}
}

func TestHandleSurfacesDecodeError(t *testing.T) {
	peers := cluster(t, 1, 100)
	resp, err := rpc(TCP{}, peers[0].Addr(), request{Type: "???"}, time.Second)
	if err == nil || resp == nil || resp.Err == "" {
		t.Fatalf("unknown message type: resp=%+v err=%v, want error response", resp, err)
	}
	// A syntactically broken request must come back as an error response,
	// not a silent hangup.
	conn, err := TCP{}.Dial(peers[0].Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	var r response
	if err := json.NewDecoder(conn).Decode(&r); err != nil {
		t.Fatalf("no response to malformed request: %v", err)
	}
	if r.OK || !strings.Contains(r.Err, "bad request") {
		t.Fatalf("response = %+v, want bad-request error", r)
	}
}

// TestOldPeerAnnouncementGetsErrorReply: the announcement batches older
// peers may still send — a JSON "gossip" message, or a binary request
// whose serving tail carries announcements — get an error reply, and
// the connection keeps serving.
func TestOldPeerAnnouncementGetsErrorReply(t *testing.T) {
	peers := cluster(t, 1, 100)
	conn, err := TCP{}.Dial(peers[0].Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)
	for _, msg := range []string{
		`{"type":"gossip","addr":"127.0.0.1:9","anns":[{"addr":"127.0.0.1:8","avail":[4,4],"uptime_sec":3}]}`,
		`{"type":"probe"}`,
	} {
		if _, err := conn.Write([]byte(msg + "\n")); err != nil {
			t.Fatal(err)
		}
		var r response
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("%s: no response: %v", msg, err)
		}
		if want := !strings.Contains(msg, "gossip"); r.OK != want {
			t.Fatalf("%s: response %+v, want OK=%v", msg, r, want)
		}
	}

	// An aggregate request with one announcement "x" in its serving tail.
	frame, err := hex.DecodeString("51530108306200000000000000440e3132372e302e302e313a3930303000000000000000c07c0000002a2b0306736f75726365097472616e73636f646506706c61796572c05c04bfa0030101017800000000cd4bb5ba")
	if err != nil {
		t.Fatal(err)
	}
	bconn, err := TCP{}.Dial(peers[0].Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bconn.Close()
	if err := bconn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := bconn.Write(frame); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadFrame(bufio.NewReader(bconn), nil)
	if err != nil {
		t.Fatalf("no binary reply: %v", err)
	}
	var r response
	if _, err := wire.NewBinary().DecodeResponse(reply, &r); err != nil {
		t.Fatal(err)
	}
	if r.OK || !strings.Contains(r.Err, "retired") {
		t.Fatalf("binary reply %+v, want a retired-extension error", r)
	}
}

func TestCloseIdempotent(t *testing.T) {
	p, err := Start(Config{Listen: "127.0.0.1:0", CPU: 10, Memory: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}

func TestGracefulLeaveRemovesFromMembership(t *testing.T) {
	peers := cluster(t, 4, 100)
	leaver := peers[2]
	if err := leaver.Leave(); err != nil {
		t.Fatal(err)
	}
	for i, p := range peers {
		if i == 2 {
			continue
		}
		for _, m := range p.Members() {
			if m == leaver.Addr() {
				t.Fatalf("peer %d still lists the leaver", i)
			}
		}
	}
	// Leave implies Close: a second Close is a no-op.
	if err := leaver.Close(); err != nil {
		t.Fatal(err)
	}
}
