package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/load"
	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/xrand"
)

// wireWorkload is one in-process loopback overlay and the traffic aimed
// at its serving peer (peer 0).
type wireWorkload struct {
	Peers                int // serving peer included
	Providers            int // peers 1..Providers host the instances, an equal share of them per service; the rest only answer lookups
	Services             int // length of the abstract path
	InstancesPerService  int
	ProvidersPerInstance int
	Network, Codec       string
	AdmitWorkers         int // 0 = admission control off (the qsapeer default)
	AdmitQueue           int
	PoolConns            int // netproto.Config.PoolConns of every peer; 0 = the default (README.md says why wire_flood_32 sets it)
	// CallersPerCPU × nproc callers drive the timed run's closed loop
	// (nproc is 1 under BENCHMARK.json's command). At 1 wire_small's loop
	// is latency-bound and every RPC wakes a parked thread, which is the
	// first thing a busy host slows down: on two CPUs it lost a fifth of
	// its goodput to the same neighbour at 1 and a thirtieth at 4, where
	// the processors stay busy. wire_flood_32 stays at 1: each caller holds
	// 3 connections per member, and past PoolConns they are dialled.
	CallersPerCPU int

	// Rates are the open loop's four fixed arrival rates r1–r4 in
	// requests/s: three the seed sustains and one it cannot, calibrated
	// once on the seed and then frozen (README.md, "Frozen rates").
	Rates [4]float64
	// MaxInFlight caps the open loop's outstanding requests; an arrival
	// past it is dropped, hence failed.
	MaxInFlight int
}

const (
	sessionLength  = 50 * time.Millisecond
	latencyLimit   = 250 * time.Millisecond // the SLO on the reported percentile
	lagLimit       = 10 * time.Millisecond  // generator lag p99 above this means a growing backlog
	clientTimeout  = 2 * time.Second
	openLoopConns  = 8   // netproto.Clients the open loop spreads arrivals over
	providerUnits  = 1e5 // CPU and memory units of every peer: no workload request is refused for capacity
	failedMs       = 1e4 // latency booked for a failed, shed or dropped request: over any limit
	drainPollEvery = 5 * time.Millisecond
)

// Request indices each loop of a run starts from in the seed's stream, so
// that an index names one request of the run.
const (
	closedFirst         = 1 << 28
	directFirst         = 2 << 28
	untracedSecondFirst = 3 << 28
	openFirst           = 1 << 32
)

// phase lengths of the timed run as shares of its measuring budget: a
// warm-up and the closed loop that agg_per_s and ok_share are read from.
// The timed run spends its whole budget on that one loop, because a loop
// half as long repeats visibly worse (README.md, "Bounds"); every open
// loop — the four-rate ladder, the latency percentiles, the knee — is the
// traced run's (tracedPhases).
var wirePhases = struct{ warm, closed float64 }{warm: 2.0 / 28, closed: 26.0 / 28}

// overlay is a started, joined and provisioned set of peers.
type overlay struct {
	w     wireWorkload
	peers []*netproto.Peer
	regs  []*obs.Registry // one per peer; nil entries in an untraced overlay
	path  []string
	hosts []map[string]bool // per hop: addresses providing that hop's service
	seed  uint64
}

// startOverlay starts the peers, joins them through peer 0, waits until
// every peer sees every member, and registers the seed's instances.
func startOverlay(w wireWorkload, seed uint64, metered bool) (*overlay, error) {
	o := &overlay{w: w, seed: seed}
	ok := false
	defer func() {
		if !ok {
			o.close()
		}
	}()
	for i := 0; i < w.Peers; i++ {
		cfg := netproto.Config{Listen: "127.0.0.1:0", Network: w.Network, Codec: w.Codec,
			CPU: providerUnits, Memory: providerUnits, RPCTimeout: clientTimeout, PoolConns: w.PoolConns}
		if i == 0 && w.AdmitWorkers > 0 {
			cfg.Admit = netproto.AdmitConfig{Workers: w.AdmitWorkers, MaxQueue: w.AdmitQueue}
		}
		var reg *obs.Registry
		if metered {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
		}
		p, err := netproto.Start(cfg)
		if err != nil {
			return nil, fmt.Errorf("start peer %d: %w", i, err)
		}
		o.peers = append(o.peers, p)
		o.regs = append(o.regs, reg)
		if i > 0 {
			if err := p.Join(o.peers[0].Addr()); err != nil {
				return nil, fmt.Errorf("join peer %d: %w", i, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range o.peers {
		for len(p.Members()) != w.Peers-1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("peer %s sees %d of %d members", p.Addr(), len(p.Members()), w.Peers-1)
			}
			runtime.Gosched() // not a sleep: a timer's millisecond is longer than a small overlay's whole set-up
		}
	}
	if err := o.provide(); err != nil {
		return nil, err
	}
	ok = true
	return o, nil
}

// provide generates the seed's instances and places them. Each service
// has its own Providers/Services provider peers, and copy c of its i-th
// instance goes to the (i+c)-th of them, so the overlay's shape — who
// hosts what, how many candidates a hop has, that no host is its own
// candidate for the next hop — is the workload's, and the seed only draws
// the instances' QoS ranges and resource vectors. Formats chain from one
// service to the next and every output rate clears every request's floor,
// so every request has a QoS-consistent path.
func (o *overlay) provide() error {
	w := o.w
	rng := xrand.New(o.seed).SplitLabeled("benchmark/instances")
	o.hosts = make([]map[string]bool, w.Services)
	perService := w.Providers / w.Services
	for s := 0; s < w.Services; s++ {
		name := fmt.Sprintf("svc%d", s)
		o.path = append(o.path, name)
		o.hosts[s] = make(map[string]bool)
		for i := 0; i < w.InstancesPerService; i++ {
			lo := rng.FloatRange(20, 24)
			in := &service.Instance{
				ID:      fmt.Sprintf("%s#%d", name, i),
				Service: service.Name(name),
				Qin:     qos.MustVector(qos.Sym("format", fmt.Sprintf("F%d", s)), qos.Range("rate", 0, 40)),
				Qout:    qos.MustVector(qos.Sym("format", fmt.Sprintf("F%d", s+1)), qos.Range("rate", lo, lo+rng.FloatRange(1, 4))),
				R:       resource.Vec2(rng.FloatRange(3, 7), rng.FloatRange(3, 7)),
				OutKbps: rng.FloatRange(40, 60),
			}
			for c := 0; c < w.ProvidersPerInstance; c++ {
				p := o.peers[1+s*perService+(i+c)%perService]
				if err := p.Provide(in); err != nil {
					return fmt.Errorf("provide %s: %w", in.ID, err)
				}
				o.hosts[s][p.Addr()] = true
			}
		}
	}
	return nil
}

func (o *overlay) close() {
	for _, p := range o.peers {
		_ = p.Close() // the listener's close error carries nothing a benchmark can act on
	}
}

// request is the i-th request of the seed's stream: the rate floor and
// the priority class vary, the path and session length do not. Every
// floor is below every instance's output rate.
func (o *overlay) request(i uint64) netproto.AggRequest {
	h := xrand.MixIndex(xrand.MixString(o.seed, "benchmark/requests"), i)
	req := netproto.AggRequest{Services: o.path, MinRate: 5 + float64(h%11), Duration: sessionLength}
	if (h>>8)%10 < 3 {
		req.Priority = 2 // interactive
	} else {
		req.DTolerant = true // batch
	}
	return req
}

// checkChain verifies an OK result: one host per hop, and each host
// provides that hop's service.
func (o *overlay) checkChain(res *netproto.AggResult) error {
	if len(res.Chain) != len(o.path) {
		return fmt.Errorf("chain %v has %d hosts for a %d-service path", res.Chain, len(res.Chain), len(o.path))
	}
	for k, host := range res.Chain {
		if !o.hosts[k][host] {
			return fmt.Errorf("chain %v: host %s does not provide %s", res.Chain, host, o.path[k])
		}
	}
	return nil
}

// drained waits for the sessions' reservations to expire and verifies
// none leaked: no peer holds a session and every ledger is back at
// capacity.
func (o *overlay) drained() error {
	capacity := resource.Vec2(providerUnits, providerUnits)
	deadline := time.Now().Add(sessionLength + 3*time.Second)
	for {
		var leak error
		for _, p := range o.peers {
			if n := p.ActiveSessions(); n != 0 {
				leak = fmt.Errorf("peer %s still holds %d sessions", p.Addr(), n)
				break
			}
			if av := p.Available(); !av.Fits(capacity) {
				leak = fmt.Errorf("peer %s available %v, want capacity %v", p.Addr(), av, capacity)
				break
			}
		}
		if leak == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return leak
		}
		time.Sleep(drainPollEvery)
	}
}

func (o *overlay) newClient(reg *obs.Registry) (*netproto.Client, error) {
	return netproto.NewClient(netproto.ClientConfig{Target: o.peers[0].Addr(),
		Network: o.w.Network, Codec: o.w.Codec, Timeout: clientTimeout, Metrics: reg})
}

// sample is one request of a loop: when it belongs on the loop's clock
// (seconds from the loop's start: its due time in the open loop, its
// completion in the closed loop), how long it took, and whether it
// completed OK. A request that did not is booked at failedMs.
type sample struct {
	at float64
	ms float64
	ok bool
}

// outcome tallies how a loop's requests ended. sent = ok+shed+errors+dropped.
type outcome struct {
	sent, ok, shed, errors, dropped int64
	wall                            time.Duration
	samples                         []sample  // one per request sent
	lagMs                           []float64 // open loop: how late each arrival was dispatched
	checkErr                        error     // first OK result that failed checkChain
}

func (c *outcome) failed() int64 { return c.shed + c.errors + c.dropped }

func (c *outcome) add(o *outcome) {
	c.sent += o.sent
	c.ok += o.ok
	c.shed += o.shed
	c.errors += o.errors
	c.dropped += o.dropped
	c.samples = append(c.samples, o.samples...)
	c.lagMs = append(c.lagMs, o.lagMs...)
	if c.checkErr == nil {
		c.checkErr = o.checkErr
	}
}

// record books one finished call.
func (c *outcome) record(o *overlay, res *netproto.AggResult, err error, at, ms float64) {
	c.sent++
	switch {
	case err != nil || res == nil:
		c.errors++
	case res.Shed:
		c.shed++
	case !res.OK:
		c.errors++
	default:
		c.ok++
		c.samples = append(c.samples, sample{at: at, ms: ms, ok: true})
		if cerr := o.checkChain(res); cerr != nil && c.checkErr == nil {
			c.checkErr = cerr
		}
		return
	}
	c.samples = append(c.samples, sample{at: at, ms: failedMs})
}

// latencies returns every request's latency, failures at failedMs, sorted.
func (c *outcome) latencies() []float64 {
	out := make([]float64, len(c.samples))
	for i, s := range c.samples {
		out[i] = s.ms
	}
	sort.Float64s(out)
	return out
}

// windowWidth is the slice of a loop a windowed median is taken over. A
// stall — a collection, a retransmit timer, a neighbour on the host —
// lands in one or two windows and leaves the median alone, where it would
// move a mean over the whole loop by its full length.
const windowWidth = 500 * time.Millisecond

// windowCount is how many whole windows fit in d, at least one.
func windowCount(d time.Duration) int { return max(1, int(d/windowWidth)) }

// windowValues cuts the loop's first d into windowCount(d) equal windows
// by sample time and applies f to each window's samples.
func (c *outcome) windowValues(d time.Duration, f func(w []sample, seconds float64) float64) []float64 {
	n := windowCount(d)
	width := d.Seconds() / float64(n)
	parts := make([][]sample, n)
	for _, s := range c.samples {
		if i := int(s.at / width); i >= 0 && i < n {
			parts[i] = append(parts[i], s)
		}
	}
	vals := make([]float64, n)
	for i, p := range parts {
		vals[i] = f(p, width)
	}
	return vals
}

// windowMedian is the median of windowValues.
func (c *outcome) windowMedian(d time.Duration, f func(w []sample, seconds float64) float64) float64 {
	return median(c.windowValues(d, f))
}

// goodput is OK completions per second of one window.
func goodput(w []sample, seconds float64) float64 {
	n := 0
	for _, s := range w {
		if s.ok {
			n++
		}
	}
	return float64(n) / seconds
}

func countWithinLimit(w []sample) int {
	n := 0
	for _, s := range w {
		if s.ok && s.ms <= float64(latencyLimit)/1e6 {
			n++
		}
	}
	return n
}

// p50 is the median latency of one window, failures at failedMs.
func p50(w []sample, _ float64) float64 {
	ms := make([]float64, len(w))
	for i, s := range w {
		ms[i] = s.ms
	}
	return median(ms)
}

// aggregator is the call a loop drives: Client.Aggregate, or
// Peer.Aggregate on the serving peer for the no-client-hop loop.
type aggregator func(req netproto.AggRequest) (*netproto.AggResult, error)

// closedLoop runs one goroutine per entry of calls, each sending its next
// request only after the previous one completes, for d. The requests are
// those of the seed's stream from index first on; wrap, when non-nil, runs
// around every call with the request's index.
func closedLoop(o *overlay, calls []aggregator, d time.Duration, first uint64, wrap func(caller int, req uint64, call func())) *outcome {
	parts := make([]*outcome, len(calls))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range calls {
		parts[c] = &outcome{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := first + uint64(c); time.Since(start) < d; i += uint64(len(calls)) {
				req := o.request(i)
				var res *netproto.AggResult
				var err error
				t0 := time.Now()
				call := func() { res, err = calls[c](req) }
				if wrap != nil {
					wrap(c, i, call)
				} else {
					call()
				}
				done := time.Now()
				parts[c].record(o, res, err, done.Sub(start).Seconds(), float64(done.Sub(t0))/1e6)
			}
		}(c)
	}
	wg.Wait()
	total := &outcome{wall: time.Since(start)}
	for _, p := range parts {
		total.add(p)
	}
	return total
}

// openLoop dispatches arrivals of a constant-rate schedule without
// waiting on completions. Latency runs from the instant a request was
// due, so a stall's cost lands on the requests it delayed; lag records
// how late the generator itself dispatched each one.
func openLoop(o *overlay, calls []aggregator, rate float64, d time.Duration, first uint64) (*outcome, error) {
	sched, err := load.NewConstant(rate)
	if err != nil {
		return nil, err
	}
	n := int(math.Ceil(rate * d.Seconds()))
	total := &outcome{lagMs: make([]float64, 0, n)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	slots := make(chan struct{}, o.w.MaxInFlight) // semaphore: the in-flight cap
	start := time.Now()
	for i := 0; i < n; i++ {
		offset := sched.Next()
		due := start.Add(offset)
		if wait := time.Until(due); wait > 0 {
			// No spinning through the last stretch: on a small box the
			// generator shares its cores with the overlay. A timer wakes
			// late by tens of microseconds; lag records it and the next
			// arrivals, due on an absolute schedule, catch up.
			time.Sleep(wait)
		}
		total.lagMs = append(total.lagMs, float64(time.Since(due))/1e6)
		select {
		case slots <- struct{}{}:
		default:
			mu.Lock()
			total.sent++
			total.dropped++
			total.samples = append(total.samples, sample{at: offset.Seconds(), ms: failedMs})
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := calls[i%len(calls)](o.request(first + uint64(i)))
			ms := float64(time.Since(due)) / 1e6
			<-slots
			mu.Lock()
			total.record(o, res, err, offset.Seconds(), ms)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	total.wall = time.Since(start)
	return total, nil
}

// leg is one open-loop rate's verdict.
type leg struct {
	rate       float64
	d          time.Duration
	out        *outcome
	lat        []float64 // every request sent, failures booked at failedMs, sorted
	p99Q, p99  float64
	lagP99     float64
	sloOKShare ratio
}

func newLeg(rate float64, d time.Duration, out *outcome) leg {
	l := leg{rate: rate, d: d, out: out, lat: out.latencies()}
	l.p99Q, l.p99 = atQuantile(l.lat, 0.99)
	lag := append([]float64(nil), out.lagMs...)
	sort.Float64s(lag)
	_, l.lagP99 = atQuantile(lag, 0.99)
	l.sloOKShare = ratio{float64(countWithinLimit(out.samples)), float64(out.sent)}
	return l
}

// sustained reports whether the overlay held this rate: nothing failed,
// shed or dropped, the tail met the limit, and the generator kept its
// schedule (no growing backlog).
func (l leg) sustained() bool {
	return l.out.failed() == 0 && l.p99 <= float64(latencyLimit)/1e6 && l.lagP99 <= float64(lagLimit)/1e6
}

// kneeOf returns the highest of the first three rates (r4 is the
// overload leg) that was sustained, 0 if none.
func kneeOf(legs []leg) float64 {
	knee := 0.0
	for _, l := range legs[:3] {
		if l.sustained() && l.rate > knee {
			knee = l.rate
		}
	}
	return knee
}

// failShare is (error+shed+dropped)/sent over the closed loop and r1–r3.
func failShare(closed *outcome, legs []leg) ratio {
	r := ratio{float64(closed.failed()), float64(closed.sent)}
	for _, l := range legs[:3] {
		r.Num += float64(l.out.failed())
		r.Den += float64(l.out.sent)
	}
	return r
}

func (l leg) String() string {
	o := l.out
	return fmt.Sprintf("%g/s: sent %d ok %d shed %d error %d dropped %d; ms from due: p50 %.4g p%g %.4g (n=%d); lag p99 %.4g ms; within %v: %s; sustained=%v",
		l.rate, o.sent, o.ok, o.shed, o.errors, o.dropped, quantile(l.lat, 0.5), 100*l.p99Q, l.p99, len(l.lat),
		l.lagP99, latencyLimit, l.sloOKShare, l.sustained())
}

// clientCalls opens n clients on the serving peer.
func clientCalls(o *overlay, n int, regs []*obs.Registry) ([]aggregator, func(), error) {
	var clients []*netproto.Client
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	calls := make([]aggregator, n)
	for i := range calls {
		var reg *obs.Registry
		if regs != nil {
			reg = regs[i]
		}
		c, err := o.newClient(reg)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		clients = append(clients, c)
		calls[i] = c.Aggregate
	}
	return calls, closeAll, nil
}

// runLeg runs open-loop leg k (0-based) at rate for d on the requests from
// index first on, checks its bookkeeping and that nothing leaked after its
// drain, and notes its verdict.
func runLeg(rep *report, o *overlay, calls []aggregator, k int, rate float64, d time.Duration, first uint64) (leg, error) {
	out, err := openLoop(o, calls, rate, d, first)
	if err != nil {
		return leg{}, err
	}
	if out.checkErr != nil {
		rep.failf("open loop r%d: %v", k+1, out.checkErr)
	}
	if out.sent != out.ok+out.failed() || int(out.sent) != len(out.samples) {
		rep.failf("open loop r%d: sent %d != ok %d + shed %d + error %d + dropped %d (%d samples)",
			k+1, out.sent, out.ok, out.shed, out.errors, out.dropped, len(out.samples))
	}
	drainStart := time.Now()
	if err := o.drained(); err != nil {
		rep.failf("after open loop r%d: %v", k+1, err)
	}
	l := newLeg(rate, d, out)
	rep.notef("open r%d %s; leg %.3g s + drain %.3g s", k+1, l, out.wall.Seconds(), time.Since(drainStart).Seconds())
	return l, nil
}

// openLegs runs the four open-loop legs of lengths shares × budget.
// before, when non-nil, runs ahead of leg k.
func openLegs(rep *report, o *overlay, calls []aggregator, shares [4]float64, budget time.Duration, before func(k int) error) ([]leg, error) {
	var legs []leg
	first := uint64(openFirst)
	for k, rate := range o.w.Rates {
		if before != nil {
			if err := before(k); err != nil {
				return nil, err
			}
		}
		l, err := runLeg(rep, o, calls, k, rate, time.Duration(shares[k]*float64(budget)), first)
		if err != nil {
			return nil, err
		}
		first += uint64(l.out.sent)
		legs = append(legs, l)
	}
	return legs, nil
}

// A set-up sample is a cold start: build the overlay, connect a client and
// carry one aggregation, which is when the overlay's lazy state (dialled
// connections, probe and lookup caches) exists too. setup_s is the median
// of at least setupMinRepeats samples, and of more of a small overlay
// until setupSpend is used.
const (
	setupMinRepeats = 9
	setupSpend      = time.Second
)

// coldStart is one set-up sample; the overlay is the caller's to close.
func coldStart(w wireWorkload, seed uint64) (*overlay, time.Duration, error) {
	start := time.Now()
	o, err := startOverlay(w, seed, false)
	if err != nil {
		return nil, 0, err
	}
	c, err := o.newClient(nil)
	if err != nil {
		o.close()
		return nil, 0, err
	}
	res, err := c.Aggregate(o.request(0))
	took := time.Since(start)
	c.Close()
	if err == nil && (res == nil || !res.OK) {
		err = fmt.Errorf("first aggregation refused: %+v", res)
	}
	if err == nil {
		err = o.checkChain(res)
	}
	if err != nil {
		o.close()
		return nil, 0, fmt.Errorf("cold start: %w", err)
	}
	return o, took, nil
}

// timedLoops is what a timed run measures on its overlay.
type timedLoops struct {
	callers      int
	warm, closed *outcome
	closedFor    time.Duration
	rss          []float64 // VmRSS in MB, one sample per window of the closed loop
}

// runTimedLoops drives the timed run's traffic at o: a warm-up and the
// closed loop.
func runTimedLoops(rep *report, o *overlay, budget time.Duration) (*timedLoops, error) {
	calls, closeCalls, err := clientCalls(o, o.w.CallersPerCPU*runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return nil, err
	}
	defer closeCalls()

	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	t := &timedLoops{callers: len(calls), closedFor: share(wirePhases.closed)}
	t.warm = closedLoop(o, calls, share(wirePhases.warm), 0, nil)
	stopSampling := sampleRSS(windowWidth)
	t.closed = closedLoop(o, calls, t.closedFor, closedFirst, nil)
	t.rss = stopSampling()
	if len(t.rss) == 0 {
		return nil, fmt.Errorf("no VmRSS sample in a closed loop of %v", t.closedFor)
	}
	if t.closed.checkErr != nil {
		rep.failf("closed loop: %v", t.closed.checkErr)
	}
	if t.closed.ok == 0 {
		rep.failf("closed loop: none of %d aggregations succeeded", t.closed.sent)
	}
	if c := t.closed; c.sent != c.ok+c.failed() || int(c.sent) != len(c.samples) {
		rep.failf("closed loop: sent %d != ok %d + shed %d + error %d (%d samples)", c.sent, c.ok, c.shed, c.errors, len(c.samples))
	}
	if err := o.drained(); err != nil {
		rep.failf("after closed loop: %v", err)
	}
	return t, nil
}

// sampleRSS reads the process's resident set (VmRSS, in MB) once every
// interval until the returned function is called, which stops the sampling
// and returns the samples. A wire workload's resident set is read this way
// and not as a high-water mark: the collector and the scavenger move
// wire_small's between 17 and 35 MB all through a run, and the one highest
// instant of that read 36–46 MB over ten runs where the median sample moved
// by a twentieth.
func sampleRSS(interval time.Duration) (stop func() []float64) {
	quit, samples := make(chan struct{}), make(chan []float64)
	go func() {
		var rss []float64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				samples <- rss
				return
			case <-tick.C:
				if mb, err := statusMB("VmRSS"); err == nil {
					rss = append(rss, mb)
				}
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-samples
	}
}

// runWireTimed is the untraced run: Metrics and Tracer stay nil on every
// peer and client.
func runWireTimed(w wireWorkload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	o, first, err := coldStart(w, seed)
	if err != nil {
		return nil, err
	}
	t, err := runTimedLoops(rep, o, budget)
	o.close()
	if err != nil {
		return nil, err
	}
	// The rest of the set-up samples come last, when the processor and the
	// runtime are as warm as they were for the loop: taken in a process's
	// first second they read up to twice as long, and by how much differs
	// from process to process.
	setups := []float64{first.Seconds()}
	for begin := time.Now(); len(setups) < setupMinRepeats || time.Since(begin) < setupSpend; {
		again, took, err := coldStart(w, seed)
		if err != nil {
			return nil, err
		}
		again.close()
		setups = append(setups, took.Seconds())
	}

	closed := t.closed
	windows := closed.windowValues(t.closedFor, goodput)
	sort.Float64s(windows)
	within := ratio{float64(countWithinLimit(closed.samples)), float64(closed.sent)}
	rep.fill(endToEnd, map[string]float64{
		"setup_s":   median(setups),
		"agg_per_s": quantile(windows, 0.5),
		"ok_share":  within.value(),
		"rss_mb":    median(t.rss),
	})
	rep.Attempted, rep.Failed = closed.sent, closed.failed()
	rep.notef("setup: %d cold starts of %d peers (start, join, provide, connect, first aggregation): s %s; the first, in a cold process, took %.4g s",
		len(setups), w.Peers, summarize(append([]float64(nil), setups...)), first.Seconds())
	rep.notef("rss_mb is the median of VmRSS sampled every %v through the closed loop: lowest %.4g MB, highest %.4g MB (n=%d)",
		windowWidth, slices.Min(t.rss), slices.Max(t.rss), len(t.rss))
	rep.notef("warm-up: %d ok in %.3g s", t.warm.ok, t.warm.wall.Seconds())
	rep.notef("closed loop: %d callers, each its own client, %v sessions; sent %d ok %d shed %d error %d in %.4g s = %.5g ok/s overall; agg_per_s is the median of %d windows of %v (lowest %.5g, quartiles %.5g and %.5g, highest %.5g); latency ms %s",
		t.callers, sessionLength, closed.sent, closed.ok, closed.shed, closed.errors, closed.wall.Seconds(), rate(closed),
		len(windows), (t.closedFor / time.Duration(len(windows))).Round(time.Millisecond), windows[0], quantile(windows, 0.25), quantile(windows, 0.75), windows[len(windows)-1], summarize(closed.latencies()))
	rep.notef("ok_share: %s of the requests sent completed OK within %v; failed %s; the open loops — the four-rate ladder, agg_p50_ms, agg_p99_ms, knee_rps — are the traced run's",
		within, latencyLimit, ratio{float64(rep.Failed), float64(rep.Attempted)})
	return rep, nil
}
