package netproto_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/load"
	"repro/internal/netproto"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
)

// The serving plane's SLO gate (DESIGN §14): an open-loop generator
// drives real aggregate RPCs at a fixed offered rate over {constant,
// bursty} × {JSON/TCP, binary/UDP}, and each leg must complete with zero
// shedding, errors or drops and hold the p99 completion target; a fifth
// leg offers ~8× the sustainable rate into a one-worker admission plane
// and must show the opposite — nonzero shedding with the admitted work
// still served and its p99 bounded, the load-shedding contract.

const (
	servingP99Target = 250 * time.Millisecond
	servingArrivals  = 200 // per leg
	servingRate      = 150 // offered arrivals per second on the sustained legs
)

// servingLeg is one leg's outcome.
type servingLeg struct {
	OK, Shed, Errors, Dropped uint64
	P50Ms, P99Ms              float64
}

// sloCluster starts a serving peer with the given admission plane
// plus two big providers of "work", the whole overlay on one network.
func sloCluster(t *testing.T, network string, admit netproto.AdmitConfig) *netproto.Peer {
	t.Helper()
	srv, err := netproto.Start(netproto.Config{Listen: "127.0.0.1:0", Network: network,
		CPU: 100, Memory: 100, RPCTimeout: 2 * time.Second, Admit: admit})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for i := 0; i < 2; i++ {
		w, err := netproto.Start(netproto.Config{Listen: "127.0.0.1:0", Network: network,
			CPU: 1e5, Memory: 1e5, RPCTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		if err := w.Join(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		in := &service.Instance{
			ID:      fmt.Sprintf("work#%d", i),
			Service: "work",
			Qin:     qos.MustVector(qos.Sym("format", "A"), qos.Range("rate", 0, 40)),
			Qout:    qos.MustVector(qos.Sym("format", "B"), qos.Range("rate", 20, 25)),
			R:       resource.Vec2(5, 5),
			OutKbps: 50,
		}
		if err := w.Provide(in); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// servingLegRun fires one open-loop leg of servingArrivals arrivals.
func servingLegRun(t *testing.T, target, schedule, network, codec string, rate float64) servingLeg {
	t.Helper()
	sched, err := load.ParseSchedule(schedule, rate, 8, 0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	client, err := netproto.NewClient(netproto.ClientConfig{
		Target: target, Network: network, Codec: codec, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	mix := load.Mix{
		{Name: "batch", Weight: 0.7, Services: []string{"work"}, MinRate: 10,
			Priority: 0, DTolerant: true, Duration: 50 * time.Millisecond},
		{Name: "interactive", Weight: 0.3, Services: []string{"work"}, MinRate: 10,
			Priority: 2, Duration: 50 * time.Millisecond},
	}
	runner, err := load.NewRunner(load.Config{
		Schedule: sched, ScheduleName: schedule, RateRPS: rate,
		Mix: mix, Requests: servingArrivals, MaxInFlight: 512, Seed: 42,
	}, client)
	if err != nil {
		t.Fatal(err)
	}
	rep := runner.Run()
	leg := servingLeg{OK: rep.Total.OK, Shed: rep.Total.Shed, Errors: rep.Total.Errors, Dropped: rep.Total.Dropped}
	if rep.Total.Latency.Count > 0 {
		leg.P50Ms = 1000 * rep.Total.Latency.Quantile(0.50)
		leg.P99Ms = 1000 * rep.Total.Latency.Quantile(0.99)
	}
	t.Logf("%s %s/%s @%.0f/s: %d ok %d shed %d err %d drop, p50 %.1fms p99 %.1fms",
		schedule, codec, network, rate, leg.OK, leg.Shed, leg.Errors, leg.Dropped, leg.P50Ms, leg.P99Ms)
	return leg
}

// TestServingSLO is the serving plane's gate. The p99 bars apply only
// without the race detector, whose instrumentation slows every RPC.
func TestServingSLO(t *testing.T) {
	target := float64(servingP99Target.Milliseconds())
	// The sustained legs get a well-provisioned admission plane — slots
	// are I/O-bound (an admitted aggregation spends its time in RPC
	// fan-out, not on a core), so the count is fixed, generous enough to
	// absorb a full Poisson burst even on a one-core box. The binary/UDP
	// legs need a UDP-listening overlay — one peer speaks one network.
	sustained := netproto.AdmitConfig{Workers: 64, MaxQueue: 256}
	srv := sloCluster(t, "tcp", sustained)
	srvUDP := sloCluster(t, "udp", sustained)
	var serviceMs float64
	for i, leg := range []struct{ schedule, network, codec string }{
		{"constant", "tcp", "json"},
		{"constant", "udp", "binary"},
		{"bursty", "tcp", "json"},
		{"bursty", "udp", "binary"},
	} {
		addr := srv.Addr()
		if leg.network == "udp" {
			addr = srvUDP.Addr()
		}
		l := servingLegRun(t, addr, leg.schedule, leg.network, leg.codec, servingRate)
		if i == 0 {
			serviceMs = l.P50Ms
		}
		if l.Shed > 0 || l.Errors > 0 || l.Dropped > 0 {
			t.Errorf("%s %s/%s: %d shed, %d errors, %d drops at low load, want none",
				leg.schedule, leg.codec, leg.network, l.Shed, l.Errors, l.Dropped)
		}
		if !raceEnabled && l.P99Ms > target {
			t.Errorf("%s %s/%s: p99 %.1fms over the %.0fms target", leg.schedule, leg.codec, leg.network, l.P99Ms, target)
		}
	}

	// Overload: ~8x one worker's measured capacity into a two-deep
	// queue. Admission must shed (backpressure works) while the admitted
	// requests stay fast (the queue cannot grow without bound). The rate
	// scales off the constant/tcp leg's p50 so the leg overloads on any
	// machine speed rather than assuming one service time.
	overRate := min(8*1000/max(serviceMs, 0.1), 20000)
	over := sloCluster(t, "tcp", netproto.AdmitConfig{Workers: 1, MaxQueue: 2,
		RetryAfter: 20 * time.Millisecond})
	l := servingLegRun(t, over.Addr(), "constant", "tcp", "json", overRate)
	if l.Shed == 0 {
		t.Error("overload leg shed nothing; admission control is not engaging")
	}
	if l.OK == 0 {
		t.Error("overload leg admitted nothing; shedding must not starve the plane")
	}
	if !raceEnabled && l.P99Ms > target {
		t.Errorf("overload p99 %.1fms over the %.0fms target: the bounded queue is not bounding latency", l.P99Ms, target)
	}
}
