package netproto

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wire"
)

// servingCluster starts a serving peer (admission-controlled, metered)
// plus workers providing "work", all joined.
func servingCluster(t *testing.T, admit AdmitConfig, reg *obs.Registry) (*Peer, []*Peer) {
	t.Helper()
	srv, err := Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100,
		RPCTimeout: 2 * time.Second, Admit: admit, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	workers := make([]*Peer, 2)
	for i := range workers {
		w, err := Start(Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100,
			RPCTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		if err := w.Join(srv.Addr()); err != nil {
			t.Fatal(err)
		}
		if err := w.Provide(inst(fmt.Sprintf("work#%d", i), "work", "A", "B", 5, 50)); err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	return srv, workers
}

// TestServingAggregateRPC drives the aggregate RPC end to end over
// both codecs: a remote client asks the serving peer to run the whole
// pipeline and gets back a session.
func TestServingAggregateRPC(t *testing.T) {
	srv, workers := servingCluster(t, AdmitConfig{Workers: 2}, nil)
	for _, codec := range []string{"json", "binary"} {
		cl, err := NewClient(ClientConfig{Target: srv.Addr(), Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Aggregate(AggRequest{Services: []string{"work"}, MinRate: 10,
			Priority: 1, Duration: 200 * time.Millisecond})
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if !res.OK || res.SessionID == "" || len(res.Chain) != 1 {
			t.Fatalf("%s: result %+v", codec, res)
		}
		hosts := map[string]bool{workers[0].Addr(): true, workers[1].Addr(): true}
		if !hosts[res.Chain[0]] {
			t.Fatalf("%s: work hosted on non-provider %s", codec, res.Chain[0])
		}
		cl.Close()
	}
}

// TestServingShedNeverReserves is the chaos-suite assertion for
// admission: under an overload where most requests shed, every shed
// reply left zero reservations behind, and admitted + shed accounts
// for every request.
func TestServingShedNeverReserves(t *testing.T) {
	reg := obs.NewRegistry()
	srv, workers := servingCluster(t, AdmitConfig{Workers: 1, MaxQueue: 1,
		RetryAfter: 50 * time.Millisecond}, reg)
	const n = 12
	results := make([]*AggResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := NewClient(ClientConfig{Target: srv.Addr(), Codec: "binary"})
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			res, err := cl.Aggregate(AggRequest{Services: []string{"work"}, MinRate: 10,
				Priority: i % 3, DTolerant: i%2 == 0, Duration: 100 * time.Millisecond})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	okCount, shedCount := 0, 0
	for i, res := range results {
		if res == nil {
			continue
		}
		switch {
		case res.OK:
			okCount++
		case res.Shed:
			shedCount++
			if res.RetryAfter <= 0 {
				t.Errorf("request %d shed without a retry-after hint: %+v", i, res)
			}
			if !strings.HasPrefix(res.Err, "shed: ") {
				t.Errorf("request %d shed with error %q", i, res.Err)
			}
		default:
			t.Errorf("request %d neither admitted nor shed: %+v", i, res)
		}
	}
	if okCount == 0 {
		t.Fatal("no request was admitted")
	}
	snap := reg.Snapshot()
	admitted := snapCounter(t, snap, "serve.admitted")
	var shed uint64
	for _, r := range shedReasons {
		shed += snapCounter(t, snap, "serve.shed."+r)
	}
	if admitted != uint64(okCount) {
		t.Errorf("serve.admitted = %d, want %d", admitted, okCount)
	}
	if shed != uint64(shedCount) {
		t.Errorf("serve.shed.* = %d, want %d", shed, shedCount)
	}
	// The chaos invariant: once admitted sessions expire, no peer holds
	// a reservation a shed request could have leaked.
	deadline := time.Now().Add(3 * time.Second)
	for {
		held := srv.ActiveSessions()
		for _, w := range workers {
			held += w.ActiveSessions()
		}
		if held == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d reservations still held after all sessions expired", held)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func snapCounter(t *testing.T, snap obs.Snapshot, name string) uint64 {
	t.Helper()
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// TestServingRetryAfterDeterministic pins the backpressure contract:
// against a known queue state, every shed reply carries exactly
// base × (1 + queue length) — the deterministic hint clients key
// their backoff on.
func TestServingRetryAfterDeterministic(t *testing.T) {
	srv, _ := servingCluster(t, AdmitConfig{Workers: 1, MaxQueue: 1,
		RetryAfter: 200 * time.Millisecond}, nil)
	// Hold the single worker slot and fill the one queue slot with a
	// parked waiter of equal priority: every later equal-priority
	// arrival (younger, so first to shed) now sheds against queue
	// length 1, so the hint must be exactly 2 × base.
	if v := srv.admit.acquire(9, false, 0); !v.run {
		t.Fatalf("test could not occupy the worker slot: %+v", v)
	}
	defer srv.admit.release()
	parked := make(chan admitVerdict, 1)
	go func() { parked <- srv.admit.acquire(1, false, 0) }()
	waitForDepth(t, srv.admit, 1)
	cl, err := NewClient(ClientConfig{Target: srv.Addr(), Codec: "binary"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		res, err := cl.Aggregate(AggRequest{Services: []string{"work"}, Priority: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Shed {
			t.Fatalf("attempt %d not shed: %+v", i, res)
		}
		if res.RetryAfter != 400*time.Millisecond {
			t.Fatalf("attempt %d: retry-after %v, want exactly 400ms (2 x base)", i, res.RetryAfter)
		}
	}
}

// TestAdmissionPriorityEviction: a full queue sheds in priority order —
// a high-priority arrival evicts the parked low-priority waiter, never
// the other way around.
func TestAdmissionPriorityEviction(t *testing.T) {
	a := newAdmission(AdmitConfig{Workers: 1, MaxQueue: 1, RetryAfter: 10 * time.Millisecond},
		make(chan struct{}), nil)
	if v := a.acquire(1, false, 0); !v.run {
		t.Fatalf("first acquire parked: %+v", v)
	}
	low := make(chan admitVerdict, 1)
	go func() { low <- a.acquire(0, true, 0) }()
	waitForDepth(t, a, 1)
	// Low-priority arrival against a full queue holding the tolerant
	// low-priority waiter: the ARRIVAL sheds (it is younger).
	if v := a.acquire(0, true, 0); v.run || v.reason != shedQueueFull {
		t.Fatalf("younger equal arrival: %+v, want queue_full shed", v)
	}
	// High-priority arrival evicts the parked waiter instead.
	high := make(chan admitVerdict, 1)
	go func() { high <- a.acquire(2, false, 0) }()
	v := <-low
	if v.run || v.reason != shedEvicted {
		t.Fatalf("low-priority waiter: %+v, want evicted shed", v)
	}
	a.release() // hand the slot to the high-priority waiter
	if v := <-high; !v.run {
		t.Fatalf("high-priority waiter shed: %+v", v)
	}
	a.release()
	if a.q.Active() != 0 || a.q.QueueLen() != 0 {
		t.Fatalf("queue not drained: active %d queued %d", a.q.Active(), a.q.QueueLen())
	}
}

// TestAdmissionDeadlineShedOnDequeue: a waiter whose latency budget
// expired while parked is shed at dequeue instead of wasting the slot.
func TestAdmissionDeadlineShedOnDequeue(t *testing.T) {
	a := newAdmission(AdmitConfig{Workers: 1, MaxQueue: 2, RetryAfter: 10 * time.Millisecond},
		make(chan struct{}), nil)
	a.acquire(0, false, 0)
	expired := make(chan admitVerdict, 1)
	go func() { expired <- a.acquire(0, false, time.Millisecond) }()
	waitForDepth(t, a, 1)
	fresh := make(chan admitVerdict, 1)
	go func() { fresh <- a.acquire(0, false, time.Minute) }()
	waitForDepth(t, a, 2)
	time.Sleep(20 * time.Millisecond) // let the first waiter's budget lapse
	a.release()
	if v := <-expired; v.run || v.reason != shedDeadline {
		t.Fatalf("expired waiter: %+v, want deadline shed", v)
	}
	// The slot fell through to the still-fresh waiter in the same
	// release call.
	if v := <-fresh; !v.run {
		t.Fatalf("fresh waiter: %+v, want run", v)
	}
}

// TestAdmissionShutdownUnparks: closing the peer's done channel frees
// every parked waiter with a shutdown shed instead of hanging them.
func TestAdmissionShutdownUnparks(t *testing.T) {
	done := make(chan struct{})
	a := newAdmission(AdmitConfig{Workers: 1, MaxQueue: 2, RetryAfter: 10 * time.Millisecond},
		done, nil)
	a.acquire(0, false, 0)
	parked := make(chan admitVerdict, 1)
	go func() { parked <- a.acquire(1, false, 0) }()
	waitForDepth(t, a, 1)
	close(done)
	select {
	case v := <-parked:
		if v.run || v.reason != shedShutdown {
			t.Fatalf("parked waiter on shutdown: %+v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked waiter still hung after shutdown")
	}
}

func waitForDepth(t *testing.T, a *admission, depth int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		a.mu.Lock()
		n := a.q.QueueLen()
		a.mu.Unlock()
		if n == depth {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d, want %d", n, depth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionFastPathAllocs is the ci-gated zero-allocation check on
// the netproto admission wrapper: an uncontended acquire/release —
// the steady state below the overload knee — touches no heap.
func TestAdmissionFastPathAllocs(t *testing.T) {
	a := newAdmission(AdmitConfig{Workers: 4, MaxQueue: 8, RetryAfter: 10 * time.Millisecond},
		make(chan struct{}), nil)
	per := testing.AllocsPerRun(1000, func() {
		v := a.acquire(1, false, 0)
		if !v.run {
			t.Fatal("uncontended acquire parked")
		}
		a.release()
	})
	if per != 0 {
		t.Fatalf("admission fast path allocates %.1f times per request", per)
	}
}

// TestAdmitFastPathAllocs is the ci-gated zero-allocation property of
// the queue itself: uncontended run/pop cycles touch no heap, and
// neither do parked ones, since the queue's slots are preallocated to
// its bound.
func TestAdmitFastPathAllocs(t *testing.T) {
	q := newAdmitQueue(4, 8)
	per := testing.AllocsPerRun(1000, func() {
		q.tryRun()
		q.pop()
	})
	if per != 0 {
		t.Fatalf("admission fast path allocates %.1f times per run/pop", per)
	}
	for i := 0; i < 4; i++ {
		q.tryRun()
	}
	lo, hi := &admitWaiter{priority: 1}, &admitWaiter{priority: 2}
	per = testing.AllocsPerRun(1000, func() {
		q.enqueue(lo) // parks: every worker is busy
		q.pop()       // pops it; the slot transfers
		q.enqueue(hi)
		q.pop()
	})
	if per != 0 {
		t.Fatalf("admission queued path allocates %.1f times per cycle", per)
	}
}

// TestRPCExchangeBytes is the ci-gated bytes-per-exchange budget: a warm
// probe exchange allocates well under the 64 KiB stream reader it used
// to construct — per exchange on the client (JSON and binary over a
// pooled TCP connection, binary over the UDP transport's shared
// endpoint, in-process server included) and per datagram on the UDP
// server side, where handle runs once per reassembled message. The UDP
// client exchange is also held at its measured allocation count, which
// a socket per exchange (14 more) or a buffer per datagram would
// exceed. The pooled reader checkout both sides use is pinned at zero
// allocations once warm.
func TestRPCExchangeBytes(t *testing.T) {
	const budget, warm, runs = 16 << 10, 10, 200
	gate := func(t *testing.T, exchange func()) {
		t.Helper()
		for i := 0; i < warm; i++ {
			exchange() // connection, buffer pools, the decoder's interning
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			exchange()
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%.0f bytes allocated per exchange", per)
		if per > budget {
			t.Fatalf("%.0f bytes allocated per exchange, budget %d", per, budget)
		}
	}
	for _, codec := range []wire.Codec{wire.JSON{}, wire.NewBinary()} {
		t.Run("tcp/"+codec.Name(), func(t *testing.T) {
			srv, err := Start(Config{Listen: "127.0.0.1:0", CPU: 10, Memory: 10})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			pool := newConnPool(TCP{}, wireTele{}, 1, time.Minute)
			defer pool.Close()
			gate(t, func() {
				if _, err := rpcWith(pool, codec, wireTele{}, srv.Addr(), request{Type: msgProbe}, time.Second); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
	t.Run("udp/client", func(t *testing.T) {
		srv, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp", CPU: 10, Memory: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tr := NewUDPTransport(WireConfig{})
		defer tr.Close()
		bin := wire.NewBinary()
		exchange := func() {
			if _, err := rpcWith(tr, bin, wireTele{}, srv.Addr(), request{Type: msgProbe}, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		gate(t, exchange)
		if RaceEnabled {
			t.Skip("the race detector's instrumentation allocates")
		}
		const allocs = 23 // client and in-process server, measured
		if per := testing.AllocsPerRun(runs, exchange); per > allocs {
			t.Fatalf("a warm UDP exchange allocates %.1f times, budget %d", per, allocs)
		}
	})
	t.Run("udp/handle", func(t *testing.T) {
		srv, err := Start(Config{Listen: "127.0.0.1:0", Network: "udp", CPU: 10, Memory: 10})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		frame, err := wire.NewBinary().AppendRequest(nil, 1, &request{Type: msgProbe})
		if err != nil {
			t.Fatal(err)
		}
		gate(t, func() {
			msg := wire.GetBuf(len(frame))
			msg.B = append(msg.B, frame...)
			c := &udpServerConn{msg: msg, msgLen: len(frame)}
			srv.handle(c)
			if c.out == nil || len(c.out.B) == 0 {
				t.Fatal("handle wrote no reply")
			}
			c.discard()
		})
	})
	t.Run("reader", func(t *testing.T) {
		if RaceEnabled {
			t.Skip("a sync.Pool drops items at random under the race detector")
		}
		r := strings.NewReader("")
		if per := testing.AllocsPerRun(200, func() { putReader(getReader(r)) }); per != 0 {
			t.Fatalf("warm reader checkout allocates %.1f/op, want 0", per)
		}
	})
}

// TestConnPoolReuse: sequential RPCs to the same peer reuse one pooled
// connection — dials stay flat while reuses climb.
func TestConnPoolReuse(t *testing.T) {
	reg := obs.NewRegistry()
	srv, _ := servingCluster(t, AdmitConfig{}, nil)
	cl, err := NewClient(ClientConfig{Target: srv.Addr(), Codec: "binary", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 5; i++ {
		if _, err := cl.Aggregate(AggRequest{Services: []string{"work"}, MinRate: 10,
			Duration: 50 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	dials := snapCounter(t, snap, "wire.conn_dials")
	reuses := snapCounter(t, snap, "wire.conn_reuses")
	if dials != 1 {
		t.Errorf("wire.conn_dials = %d, want 1 (one connection for all requests)", dials)
	}
	if reuses != 4 {
		t.Errorf("wire.conn_reuses = %d, want 4", reuses)
	}
	if cl.pool.idleCount(srv.Addr()) != 1 {
		t.Errorf("idle pool holds %d conns, want 1", cl.pool.idleCount(srv.Addr()))
	}
}

// TestDialsPerAggregation measures wire.conn_dials per aggregation, summed
// over a 32-peer TCP overlay in wire_flood_32's shape (3-service path, 12
// providers, 4 instances per service on 2 providers each), for one and
// four closed-loop callers at the default PoolConns and at 8 — the table
// in EXPERIMENTS.md "Discovery fan-out and per-exchange buffers". With
// one lookup per member a lone caller never needs two connections to one
// target at a time, so the default pool must dial less than once per
// aggregation in steady state; the other rows are reported, not gated.
func TestDialsPerAggregation(t *testing.T) {
	const (
		nPeers, nServices, perService, instances, copies = 32, 3, 4, 4, 2
		warm, measured                                   = 5, 40
	)
	for _, leg := range []struct{ poolConns, callers int }{{0, 1}, {0, 4}, {8, 1}, {8, 4}} {
		t.Run(fmt.Sprintf("pool=%d/callers=%d", leg.poolConns, leg.callers), func(t *testing.T) {
			reg := obs.NewRegistry() // fleet-wide: every peer's dials count
			peers := make([]*Peer, nPeers)
			for i := range peers {
				p, err := Start(Config{Listen: "127.0.0.1:0", CPU: 1e5, Memory: 1e5,
					RPCTimeout: 2 * time.Second, PoolConns: leg.poolConns, Metrics: reg})
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
			var path []service.Name
			for s := 0; s < nServices; s++ {
				name := fmt.Sprintf("svc%d", s)
				path = append(path, service.Name(name))
				for i := 0; i < instances; i++ {
					in := inst(fmt.Sprintf("%s#%d", name, i), service.Name(name),
						fmt.Sprintf("F%d", s), fmt.Sprintf("F%d", s+1), 5, 50)
					for c := 0; c < copies; c++ {
						if err := peers[1+s*perService+(i+c)%perService].Provide(in); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			run := func(n int) {
				var wg sync.WaitGroup
				for c := 0; c < leg.callers; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if _, err := peers[0].Aggregate(path, userQoS, 20*time.Millisecond); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			run(warm)
			before := snapCounter(t, reg.Snapshot(), "wire.conn_dials")
			run(measured)
			dials := snapCounter(t, reg.Snapshot(), "wire.conn_dials") - before
			per := float64(dials) / float64(measured*leg.callers)
			t.Logf("PoolConns %d, %d callers: %d dials over %d aggregations = %.2f per aggregation",
				leg.poolConns, leg.callers, dials, measured*leg.callers, per)
			if leg.poolConns == 0 && leg.callers == 1 && per >= 1 {
				t.Fatalf("one caller at the default PoolConns dials %.2f times per aggregation, want < 1", per)
			}
		})
	}
}

// transportFunc adapts a function to the Transport interface (tests).
type transportFunc func(addr string, timeout time.Duration) (net.Conn, error)

func (f transportFunc) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return f(addr, timeout)
}

// TestConnPoolExpiry: a connection idling past the pool TTL is torn
// down, not handed out.
func TestConnPoolExpiry(t *testing.T) {
	dialed := 0
	tr := transportFunc(func(addr string, timeout time.Duration) (net.Conn, error) {
		dialed++
		c1, c2 := net.Pipe()
		go func() { // sink: swallow whatever the exchange writes
			buf := make([]byte, 1024)
			for {
				if _, err := c2.Read(buf); err != nil {
					return
				}
			}
		}()
		return c1, nil
	})
	pool := newConnPool(tr, wireTele{}, 1, 10*time.Millisecond)
	conn, err := pool.Dial("x", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	markReusable(conn)
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if pool.idleCount("x") != 1 {
		t.Fatalf("idle count %d, want 1", pool.idleCount("x"))
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := pool.Dial("x", time.Second); err != nil {
		t.Fatal(err)
	}
	if dialed != 2 {
		t.Fatalf("dialed %d times, want 2 (expired conn must not be reused)", dialed)
	}
	pool.Close()
}
