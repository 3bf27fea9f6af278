package qsa

import (
	"strings"
	"testing"
)

// videoGrid builds a small grid with a two-service application:
// "source" instances feeding "player" instances, replicated on several
// peers each.
func videoGrid(t *testing.T, cfg Config) (*Grid, []PeerID) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var peers []PeerID
	for i := 0; i < 12; i++ {
		p, err := g.AddPeer(500, 500)
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	src := Instance{
		ID: "source/mpeg", Service: "source",
		Input:  QoS{Sym("format", "RAW")},
		Output: QoS{Sym("format", "MPEG"), Range("fps", 20, 30)},
		CPU:    50, Memory: 50, Kbps: 8,
	}
	player := Instance{
		ID: "player/real", Service: "player",
		Input:  QoS{Sym("format", "MPEG"), Range("fps", 0, 40)},
		Output: QoS{Sym("format", "SCREEN"), Range("fps", 20, 30)},
		CPU:    30, Memory: 30, Kbps: 5,
	}
	for _, p := range peers[:4] {
		if err := g.Provide(p, src); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers[4:8] {
		if err := g.Provide(p, player); err != nil {
			t.Fatal(err)
		}
	}
	return g, peers
}

var videoReq = Request{
	Path:     []string{"source", "player"},
	MinQoS:   QoS{Range("fps", 15, 1e9)},
	Duration: 10,
}

func TestAggregateHappyPath(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	user := peers[11]
	plan, err := g.Aggregate(user, videoReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Instances) != 2 || plan.Instances[0] != "source/mpeg" || plan.Instances[1] != "player/real" {
		t.Fatalf("plan instances = %v", plan.Instances)
	}
	if len(plan.Peers) != 2 {
		t.Fatalf("plan peers = %v", plan.Peers)
	}
	if plan.Cost <= 0 {
		t.Fatalf("cost = %v", plan.Cost)
	}
	st, err := g.Status(plan.SessionID)
	if err != nil || st != SessionActive {
		t.Fatalf("status = %v, %v", st, err)
	}
	// Resources are reserved on the chosen peers.
	cpu, _, err := g.Available(plan.Peers[0])
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 450 {
		t.Fatalf("source host available cpu = %v, want 450", cpu)
	}
	// Session completes after its duration.
	g.Advance(10)
	st, _ = g.Status(plan.SessionID)
	if st != SessionCompleted {
		t.Fatalf("status after duration = %v", st)
	}
	cpu, _, _ = g.Available(plan.Peers[0])
	if cpu != 500 {
		t.Fatalf("resources not released: %v", cpu)
	}
}

func TestAggregateRespectsQoS(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	// Demanding more fps than any instance produces must fail composition.
	_, err := g.Aggregate(peers[0], Request{
		Path:     []string{"source", "player"},
		MinQoS:   QoS{Range("fps", 35, 1e9)},
		Duration: 5,
	})
	if err == nil {
		t.Fatal("unsatisfiable QoS must fail")
	}
}

func TestAggregateUnknownService(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	_, err := g.Aggregate(peers[0], Request{Path: []string{"nope"}, Duration: 5})
	if err == nil {
		t.Fatal("unknown service must fail")
	}
}

func TestAggregateValidation(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	if _, err := g.Aggregate(peers[0], Request{Duration: 5}); err == nil {
		t.Fatal("empty path must fail")
	}
	if _, err := g.Aggregate(peers[0], videoRequestWithDuration(0)); err == nil {
		t.Fatal("zero duration must fail")
	}
	bad := videoReq
	bad.MinQoS = QoS{Range("fps", 10, 5)}
	if _, err := g.Aggregate(peers[0], bad); err == nil {
		t.Fatal("inverted range must fail")
	}
}

func videoRequestWithDuration(d float64) Request {
	r := videoReq
	r.Duration = d
	return r
}

func TestDepartureFailsSession(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	plan, err := g.Aggregate(peers[11], videoReq)
	if err != nil {
		t.Fatal(err)
	}
	g.Advance(2)
	if err := g.Depart(plan.Peers[0]); err != nil {
		t.Fatal(err)
	}
	st, _ := g.Status(plan.SessionID)
	if st != SessionFailed {
		t.Fatalf("status = %v, want failed after host departure", st)
	}
	if g.Peers() != 11 {
		t.Fatalf("Peers = %d", g.Peers())
	}
}

func TestRecoveryKeepsSessionAlive(t *testing.T) {
	g, peers := videoGrid(t, Config{EnableRecovery: true})
	plan, err := g.Aggregate(peers[11], videoReq)
	if err != nil {
		t.Fatal(err)
	}
	g.Advance(2)
	if err := g.Depart(plan.Peers[0]); err != nil {
		t.Fatal(err)
	}
	st, _ := g.Status(plan.SessionID)
	if st != SessionActive {
		t.Fatalf("status = %v, recovery should replace the lost host", st)
	}
	g.Advance(10)
	st, _ = g.Status(plan.SessionID)
	if st != SessionCompleted {
		t.Fatalf("status = %v", st)
	}
}

func TestWithdraw(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	for _, p := range peers[:4] {
		if err := g.Withdraw(p, "source/mpeg"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Aggregate(peers[11], videoReq); err == nil {
		t.Fatal("aggregation must fail after all providers withdrew")
	}
	if err := g.Withdraw(peers[0], "ghost"); err == nil {
		t.Fatal("withdrawing an unknown instance must fail")
	}
}

func TestSoftStateExpiry(t *testing.T) {
	g, peers := videoGrid(t, Config{RegistryTTL: 5})
	g.Advance(6) // registrations lapse without refresh
	if _, err := g.Aggregate(peers[11], videoReq); err == nil {
		t.Fatal("expired registrations must not be discoverable")
	}
	// Re-providing refreshes the soft state.
	src := Instance{
		ID: "source/mpeg", Service: "source",
		Input:  QoS{Sym("format", "RAW")},
		Output: QoS{Sym("format", "MPEG"), Range("fps", 20, 30)},
		CPU:    50, Memory: 50, Kbps: 8,
	}
	player := Instance{
		ID: "player/real", Service: "player",
		Input:  QoS{Sym("format", "MPEG"), Range("fps", 0, 40)},
		Output: QoS{Sym("format", "SCREEN"), Range("fps", 20, 30)},
		CPU:    30, Memory: 30, Kbps: 5,
	}
	g.Provide(peers[0], src)
	g.Provide(peers[5], player)
	if _, err := g.Aggregate(peers[11], videoReq); err != nil {
		t.Fatalf("refresh did not restore discoverability: %v", err)
	}
}

func TestLoadBalancingAcrossProviders(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	hosts := map[PeerID]int{}
	for i := 0; i < 8; i++ {
		plan, err := g.Aggregate(peers[11], Request{
			Path:     []string{"source", "player"},
			MinQoS:   QoS{Range("fps", 15, 1e9)},
			Duration: 60,
		})
		if err != nil {
			t.Fatalf("aggregation %d: %v", i, err)
		}
		hosts[plan.Peers[0]]++
		g.Advance(1.1) // let the probe cache expire so Φ sees the new load
	}
	// Φ normalizes bandwidth by the (tiny) demand, so hosts on 10 Mbps
	// pairs dominate; spread therefore happens among the well-connected
	// hosts rather than across all four. Two or more distinct hosts is
	// what load balance means here — fixed selection would use exactly one.
	if len(hosts) < 2 {
		t.Fatalf("Φ selection did not spread load: %v", hosts)
	}
}

func TestAdmissionControlSaturates(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	// Source hosts have 500 cpu and each session takes 50; 4 providers ⇒
	// at most 40 concurrent source components. Demand far more.
	failures := 0
	for i := 0; i < 60; i++ {
		if _, err := g.Aggregate(peers[11], Request{
			Path:     []string{"source", "player"},
			MinQoS:   QoS{Range("fps", 15, 1e9)},
			Duration: 1000,
		}); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("admission control never rejected despite saturation")
	}
}

func TestUptimeAndBandwidthAccessors(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	g.Advance(7)
	u, err := g.Uptime(peers[0])
	if err != nil || u != 7 {
		t.Fatalf("Uptime = %v, %v", u, err)
	}
	bw := g.Bandwidth(peers[0], peers[1])
	switch bw {
	case 10000, 500, 100, 56:
	default:
		t.Fatalf("Bandwidth = %v not in paper classes", bw)
	}
	if _, err := g.Uptime(9999); err == nil {
		t.Fatal("unknown peer must fail")
	}
	if _, _, err := g.Available(9999); err == nil {
		t.Fatal("unknown peer must fail")
	}
}

func TestStatusUnknownSession(t *testing.T) {
	g, _ := videoGrid(t, Config{})
	if _, err := g.Status(999); err == nil {
		t.Fatal("unknown session must fail")
	}
}

func TestAddPeerValidation(t *testing.T) {
	g, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddPeer(-1, 5); err == nil {
		t.Fatal("negative capacity must fail")
	}
	if g.Peers() != 0 {
		t.Fatalf("Peers = %d on empty grid", g.Peers())
	}
}

// TestAnchorPeerIsNotAddressable pins that the grid's internal peer 0
// is refused by every operation taking a peer: it can neither leave,
// host, nor issue a request.
func TestAnchorPeerIsNotAddressable(t *testing.T) {
	g, _ := videoGrid(t, Config{})
	inst := Instance{
		ID: "source/raw", Service: "source",
		Input:  QoS{Sym("format", "RAW")},
		Output: QoS{Sym("format", "MPEG"), Range("fps", 20, 30)},
		CPU:    1, Memory: 1, Kbps: 1,
	}
	if err := g.Provide(0, inst); err == nil {
		t.Error("Provide(0) must fail")
	}
	if err := g.Withdraw(0, "source/mpeg"); err == nil {
		t.Error("Withdraw(0) must fail")
	}
	if _, err := g.Uptime(0); err == nil {
		t.Error("Uptime(0) must fail")
	}
	if _, _, err := g.Available(0); err == nil {
		t.Error("Available(0) must fail")
	}
	if _, err := g.Aggregate(0, videoReq); err == nil {
		t.Error("Aggregate(0) must fail")
	}
	before := g.Peers()
	if err := g.Depart(0); err == nil {
		t.Error("Depart(0) must fail")
	}
	if g.Peers() != before {
		t.Fatalf("Peers = %d after Depart(0), want %d", g.Peers(), before)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Weights: []float64{0.9, 0.9, 0.9}}); err == nil {
		t.Fatal("weights not summing to 1 must fail")
	}
	// A negative TTL would register every Provide already expired.
	if _, err := New(Config{RegistryTTL: -1}); err == nil {
		t.Fatal("negative registry TTL must fail")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []PeerID {
		g, peers := videoGrid(t, Config{Seed: 42})
		var chosen []PeerID
		for i := 0; i < 5; i++ {
			plan, err := g.Aggregate(peers[11], videoReq)
			if err != nil {
				t.Fatal(err)
			}
			chosen = append(chosen, plan.Peers...)
			g.Advance(1)
		}
		return chosen
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestGridStats(t *testing.T) {
	g, peers := videoGrid(t, Config{})
	if s := g.Stats(); s.Admitted != 0 || s.Probes != 0 {
		t.Fatalf("fresh grid stats = %+v", s)
	}
	plan, err := g.Aggregate(peers[11], videoReq)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Admitted != 1 || s.Probes == 0 || s.InformedSelections == 0 || s.Lookups == 0 {
		t.Fatalf("stats after aggregation = %+v", s)
	}
	g.Advance(videoReq.Duration + 1)
	if s := g.Stats(); s.Completed != 1 {
		t.Fatalf("stats after completion = %+v", s)
	}
	_ = plan
}

func TestParseSpecIntoGrid(t *testing.T) {
	const doc = `
instance source/hd {
    service: source
    input:   media=cam
    output:  format=MPEG, fps=[20,30]
    cpu:     50
    memory:  50
    kbps:    10
}
instance player/std {
    service: player
    input:   format=MPEG, fps=[0,40]
    output:  screen=yes, fps=[20,30]
    cpu:     30
    memory:  30
    kbps:    10
}
application stream {
    path: source -> player
}
`
	instances, apps, err := ParseSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != 2 || len(apps) != 1 {
		t.Fatalf("parsed %d instances, %d apps", len(instances), len(apps))
	}
	g, err := New(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var peers []PeerID
	for i := 0; i < 5; i++ {
		p, err := g.AddPeer(400, 400)
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	for i, in := range instances {
		if err := g.Provide(peers[i], in); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := g.Aggregate(peers[4], Request{
		Path:     apps["stream"],
		MinQoS:   QoS{Range("fps", 15, 1e9)},
		Duration: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Instances) != 2 {
		t.Fatalf("plan = %+v", plan)
	}
	if _, _, err := ParseSpec(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage spec accepted")
	}
}

func TestAdvancePanicsOnNegative(t *testing.T) {
	g, _ := New(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance must panic")
		}
	}()
	g.Advance(-1)
}
