// Deterministic chaos suite: full aggregate/monitor/recovery scenarios
// run against the fault-injecting transport (internal/faults) at drop
// rates from 0 to 30%, asserting the protocol invariants:
//
//   - no double-reservation: after every session has been released or
//     has expired, every peer is back at full capacity;
//   - reservations are always released or expired after session failure;
//   - membership converges after partitions heal;
//   - sessions either complete or fail cleanly (an Aggregate error means
//     nothing is left reserved once rollback/expiry has run).
//
// The fault plane's decisions are pure functions of (seed, link,
// attempt), so a given seed replays the same per-link fault transcript
// run after run — that determinism is asserted here too.
package netproto_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func chaosInst(id string, svc service.Name, inFmt, outFmt string, r float64) *service.Instance {
	return &service.Instance{
		ID:      id,
		Service: svc,
		Qin:     qos.MustVector(qos.Sym("format", inFmt), qos.Range("rate", 0, 40)),
		Qout:    qos.MustVector(qos.Sym("format", outFmt), qos.Range("rate", 20, 25)),
		R:       resource.Vec2(r, r),
		OutKbps: 10,
	}
}

var chaosQoS = qos.MustVector(qos.Range("rate", 0, 1e9))

func nodeName(i int) string { return fmt.Sprintf("n%d", i) }

// chaosCluster starts n peers dialing through fab, named n0..n(n-1),
// joined into one overlay via n0. tweak (optional) edits each config
// before Start.
func chaosCluster(t *testing.T, fab *faults.Fabric, n int, cpu float64, tweak func(i int, cfg *netproto.Config)) []*netproto.Peer {
	t.Helper()
	peers := make([]*netproto.Peer, n)
	for i := range peers {
		cfg := netproto.Config{
			Listen:     "127.0.0.1:0",
			CPU:        cpu,
			Memory:     cpu,
			RPCTimeout: 2 * time.Second,
			Transport:  fab.Node(nodeName(i)),
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		p, err := netproto.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		fab.Register(nodeName(i), p.Addr())
		peers[i] = p
	}
	for i := 1; i < n; i++ {
		if err := peers[i].Join(peers[0].Addr()); err != nil {
			t.Fatalf("join peer %d: %v", i, err)
		}
	}
	return peers
}

// waitFullCapacity polls until every peer has zero active sessions and
// its full capacity back — the no-double-reservation / always-released
// invariant.
func waitFullCapacity(t *testing.T, peers []*netproto.Peer, cpu float64, deadline time.Duration) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for time.Now().Before(limit) {
		clean := true
		for _, p := range peers {
			if p.ActiveSessions() != 0 || p.Available()[0] != cpu {
				clean = false
				break
			}
		}
		if clean {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, p := range peers {
		if p.ActiveSessions() != 0 || p.Available()[0] != cpu {
			t.Errorf("peer %d: %d sessions still active, available %v (capacity %v)",
				i, p.ActiveSessions(), p.Available(), cpu)
		}
	}
	t.Fatal("capacity never fully restored: reservation leaked or double-booked")
}

// TestChaosAggregateUnderDrop runs repeated end-to-end aggregations at
// 0%, 10% and 30% per-link drop rates. Whatever the rate, a request
// must either return a valid plan or a clean error, and once every
// session has expired all capacity must be back — no double
// reservation, no leaked reservation.
func TestChaosAggregateUnderDrop(t *testing.T) {
	for _, rate := range []float64{0, 0.10, 0.30} {
		t.Run(fmt.Sprintf("drop=%v", rate), func(t *testing.T) {
			fab, err := faults.New(faults.Config{
				Seed:          42,
				DropRate:      rate,
				Latency:       time.Millisecond,
				LatencyJitter: 2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			const cpu = 400
			peers := chaosCluster(t, fab, 5, cpu, nil)
			src := chaosInst("source#0", "source", "RAW", "MPEG", 40)
			snk := chaosInst("player#0", "player", "MPEG", "SCREEN", 30)
			for _, p := range peers[1:3] {
				if err := p.Provide(src); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range peers[2:4] {
				if err := p.Provide(snk); err != nil {
					t.Fatal(err)
				}
			}
			user := peers[4]
			ok := 0
			const requests = 6
			for i := 0; i < requests; i++ {
				plan, err := user.Aggregate([]service.Name{"source", "player"}, chaosQoS, 250*time.Millisecond)
				if err != nil {
					continue // a clean failure is an allowed outcome under loss
				}
				ok++
				if len(plan.Peers) != 2 || len(plan.Instances) != 2 {
					t.Fatalf("request %d: malformed plan %+v", i, plan)
				}
			}
			if rate == 0 && ok != requests {
				t.Fatalf("lossless fabric completed %d/%d aggregations", ok, requests)
			}
			t.Logf("drop=%v: %d/%d aggregations completed", rate, ok, requests)
			waitFullCapacity(t, peers, cpu, 10*time.Second)
		})
	}
}

// TestChaosRetryBeatsBaseline scripts the exact scenario retry exists
// for: the single provider's discovery reply is dropped once. The
// no-retry baseline peer fails the aggregation; the retrying peer
// completes it.
func TestChaosRetryBeatsBaseline(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const cpu = 200
	// n0 bootstrap, n1 sole provider, n2 baseline user (retry disabled),
	// n3 retrying user (default policy).
	peers := chaosCluster(t, fab, 4, cpu, func(i int, cfg *netproto.Config) {
		if i == 2 {
			cfg.Retry = netproto.RetryPolicy{Attempts: 1}
		}
	})
	w := chaosInst("work#0", "work", "A", "B", 30)
	if err := peers[1].Provide(w); err != nil {
		t.Fatal(err)
	}

	fab.DropNext(nodeName(2), nodeName(1), 1)
	if _, err := peers[2].Aggregate([]service.Name{"work"}, chaosQoS, 100*time.Millisecond); err == nil {
		t.Fatal("baseline without retry survived the dropped lookup")
	}

	fab.DropNext(nodeName(3), nodeName(1), 1)
	plan, err := peers[3].Aggregate([]service.Name{"work"}, chaosQoS, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("retrying peer failed the same scenario: %v", err)
	}
	if plan.Peers[0] != peers[1].Addr() {
		t.Fatalf("plan landed on %s, want the provider", plan.Peers[0])
	}
	waitFullCapacity(t, peers, cpu, 5*time.Second)
}

// TestChaosDiscoveryCountsLostMembers: a member whose lookup fails after
// retries is left out of that aggregation's discovery, and
// discovery.lookup_failed says so — 0 on the lossless fabric, one per
// unreachable member per aggregation under a cut.
func TestChaosDiscoveryCountsLostMembers(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	const cpu = 200
	// n0 bootstrap, n1 and n2 providers, n3 the metered user.
	peers := chaosCluster(t, fab, 4, cpu, func(i int, cfg *netproto.Config) {
		if i == 3 {
			cfg.Metrics = reg
			cfg.Retry = netproto.RetryPolicy{Attempts: 2, BaseDelay: 5 * time.Millisecond}
		}
	})
	w := chaosInst("work#0", "work", "A", "B", 30)
	for _, p := range peers[1:3] {
		if err := p.Provide(w); err != nil {
			t.Fatal(err)
		}
	}
	user := peers[3]
	lost := func() uint64 {
		for _, c := range reg.Snapshot().Counters {
			if c.Name == "discovery.lookup_failed" {
				return c.Value
			}
		}
		t.Fatal("discovery.lookup_failed is not registered")
		return 0
	}
	for i := 0; i < 3; i++ {
		if _, err := user.Aggregate([]service.Name{"work"}, chaosQoS, 50*time.Millisecond); err != nil {
			t.Fatalf("lossless request %d: %v", i, err)
		}
	}
	if n := lost(); n != 0 {
		t.Fatalf("discovery.lookup_failed = %d on the lossless fabric", n)
	}

	fab.Cut(nodeName(3), nodeName(1))
	plan, err := user.Aggregate([]service.Name{"work"}, chaosQoS, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("the reachable provider should have carried the request: %v", err)
	}
	if plan.Peers[0] != peers[2].Addr() {
		t.Fatalf("plan landed on %s, want the provider on the near side of the cut", plan.Peers[0])
	}
	if n := lost(); n != 1 {
		t.Fatalf("discovery.lookup_failed = %d after one aggregation across a cut to one member, want 1", n)
	}
	waitFullCapacity(t, peers, cpu, 5*time.Second)
}

// TestChaosPartitionHealMembership: a joiner partitioned from one member
// ends up with asymmetric membership; after the partition heals, a
// re-join converges everyone onto the full view.
func TestChaosPartitionHealMembership(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	peers := chaosCluster(t, fab, 3, 100, nil)

	// Start a fourth peer but partition it from n2 before it joins.
	cfg := netproto.Config{
		Listen: "127.0.0.1:0", CPU: 100, Memory: 100,
		RPCTimeout: time.Second, Transport: fab.Node(nodeName(3)),
		Retry: netproto.RetryPolicy{Attempts: 2, BaseDelay: 5 * time.Millisecond},
	}
	d, err := netproto.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	fab.Register(nodeName(3), d.Addr())
	fab.CutBoth(nodeName(3), nodeName(2))

	if err := d.Join(peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	// d learned n2 from the bootstrap's member list, but its announcement
	// to n2 was cut: the views are asymmetric.
	if !hasMember(d, peers[2].Addr()) {
		t.Fatal("joiner did not learn the partitioned member from the bootstrap")
	}
	if hasMember(peers[2], d.Addr()) {
		t.Fatal("announcement crossed a cut partition")
	}

	fab.HealAll()
	if err := d.Join(peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	all := append(peers, d)
	for i, p := range all {
		for j, q := range all {
			if i == j {
				continue
			}
			if !hasMember(p, q.Addr()) {
				t.Fatalf("after heal+rejoin, peer %d does not know peer %d", i, j)
			}
		}
	}
}

func hasMember(p *netproto.Peer, addr string) bool {
	for _, m := range p.Members() {
		if m == addr {
			return true
		}
	}
	return false
}

// TestChaosCrashRecoveryAndRestart: the session's chosen host crashes at
// the network level; the initiator's monitor re-homes the component onto
// the surviving provider and the session completes. After the crashed
// peer restarts, its orphaned reservation has expired on its own.
func TestChaosCrashRecoveryAndRestart(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const cpu = 200
	peers := chaosCluster(t, fab, 4, cpu, func(i int, cfg *netproto.Config) {
		cfg.RPCTimeout = time.Second
		cfg.MonitorInterval = 50 * time.Millisecond
		cfg.ProbeCacheTTL = 10 * time.Millisecond
		cfg.Retry = netproto.RetryPolicy{Attempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	})
	w := chaosInst("work#0", "work", "A", "B", 40)
	if err := peers[1].Provide(w); err != nil {
		t.Fatal(err)
	}
	if err := peers[2].Provide(w); err != nil {
		t.Fatal(err)
	}
	user := peers[3]
	plan, err := user.Aggregate([]service.Name{"work"}, chaosQoS, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var victim, survivor int
	if plan.Peers[0] == peers[1].Addr() {
		victim, survivor = 1, 2
	} else {
		victim, survivor = 2, 1
	}
	fab.Crash(nodeName(victim))

	deadline := time.Now().Add(3 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		hosts, _ := user.SessionHosts(plan.SessionID)
		if len(hosts) == 1 && hosts[0] == peers[survivor].Addr() {
			recovered = true
			break
		}
		if st, _ := user.SessionStatus(plan.SessionID); st == netproto.StatusFailed {
			t.Fatal("session failed although a replacement provider existed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("monitor never re-homed the component off the crashed peer")
	}

	deadline = time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := user.SessionStatus(plan.SessionID); st == netproto.StatusCompleted {
			break
		}
		time.Sleep(30 * time.Millisecond)
	}
	if st, _ := user.SessionStatus(plan.SessionID); st != netproto.StatusCompleted {
		t.Fatalf("recovered session ended as %q, want completed", st)
	}

	// The crashed peer kept running behind the partition; its reservation
	// must expire on its own, and after restart all capacity is back.
	fab.Restart(nodeName(victim))
	waitFullCapacity(t, peers, cpu, 6*time.Second)
}

// TestChaosCrashFailsCleanly: the only provider crashes; the session
// must fail cleanly and every surviving reservation must be released.
func TestChaosCrashFailsCleanly(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const cpu = 200
	peers := chaosCluster(t, fab, 3, cpu, func(i int, cfg *netproto.Config) {
		cfg.RPCTimeout = time.Second
		cfg.MonitorInterval = 50 * time.Millisecond
		cfg.ProbeCacheTTL = 10 * time.Millisecond
		cfg.Retry = netproto.RetryPolicy{Attempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond}
	})
	w := chaosInst("work#0", "work", "A", "B", 40)
	if err := peers[1].Provide(w); err != nil {
		t.Fatal(err)
	}
	user := peers[2]
	plan, err := user.Aggregate([]service.Name{"work"}, chaosQoS, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fab.Crash(nodeName(1))
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := user.SessionStatus(plan.SessionID); st == netproto.StatusFailed {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st, _ := user.SessionStatus(plan.SessionID); st != netproto.StatusFailed {
		t.Fatalf("session ended as %q with its only provider crashed, want failed", st)
	}
	fab.Restart(nodeName(1))
	waitFullCapacity(t, peers, cpu, 6*time.Second)
}

// TestChaosChurn drives crash/restart churn with the simulator's own
// churn distribution (sim.ChurnCounts — the knob the discrete-event
// simulator uses, reused by the fault plane) while aggregations keep
// arriving. Every request must complete or fail cleanly, and the grid
// must return to full capacity once the churn stops and sessions expire.
func TestChaosChurn(t *testing.T) {
	fab, err := faults.New(faults.Config{Seed: 11, DropRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	const cpu = 300
	peers := chaosCluster(t, fab, 6, cpu, nil)
	w := chaosInst("work#0", "work", "A", "B", 30)
	for _, p := range peers[1:4] {
		if err := p.Provide(w); err != nil {
			t.Fatal(err)
		}
	}
	user := peers[5]
	rng := xrand.New(23)
	crashed := make(map[int]bool)
	ok := 0
	const rounds = 4
	for round := 0; round < rounds; round++ {
		dep, arr := sim.ChurnCounts(rng, 4)
		for i := 0; i < dep; i++ {
			// Crash a random provider-side peer (never the user).
			victim := 1 + rng.Intn(4)
			if !crashed[victim] {
				crashed[victim] = true
				fab.Crash(nodeName(victim))
			}
		}
		for i := 0; i < arr && len(crashed) > 0; i++ {
			for victim := range crashed {
				delete(crashed, victim)
				fab.Restart(nodeName(victim))
				break
			}
		}
		plan, err := user.Aggregate([]service.Name{"work"}, chaosQoS, 150*time.Millisecond)
		if err != nil {
			continue
		}
		ok++
		if len(plan.Peers) != 1 {
			t.Fatalf("round %d: malformed plan %+v", round, plan)
		}
	}
	t.Logf("churn: %d/%d aggregations completed", ok, rounds)
	fab.HealAll()
	waitFullCapacity(t, peers, cpu, 10*time.Second)
}

// TestChaosTranscriptDeterministic pins the fault plane's determinism
// contract at the rates the suite runs: for a given seed, the verdict
// for the n-th dial on a link is identical across independent fabrics,
// and the stream actually injects faults at non-zero rates.
func TestChaosTranscriptDeterministic(t *testing.T) {
	for _, rate := range []float64{0, 0.10, 0.30} {
		a, err := faults.New(faults.Config{Seed: 42, DropRate: rate, LatencyJitter: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		b, err := faults.New(faults.Config{Seed: 42, DropRate: rate, LatencyJitter: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		drops := 0
		for _, l := range [][2]string{{"n0", "n1"}, {"n1", "n0"}, {"n4", "n2"}} {
			for n := uint64(1); n <= 200; n++ {
				va, vb := a.Verdict(l[0], l[1], n), b.Verdict(l[0], l[1], n)
				if va != vb {
					t.Fatalf("rate %v link %v attempt %d: verdicts diverged: %+v vs %+v", rate, l, n, va, vb)
				}
				if va.Drop {
					drops++
				}
			}
		}
		if rate == 0 && drops != 0 {
			t.Fatalf("lossless fabric dropped %d dials", drops)
		}
		if rate > 0 && drops == 0 {
			t.Fatalf("rate %v produced no drops in 600 verdicts", rate)
		}
	}
}
