package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/wire"
)

// phase lengths of the traced wire run as shares of the budget: an
// untraced closed loop (the base of trace_overhead_share), then on the
// metered overlay a closed loop through clients, one straight on the
// serving peer, the four open-loop legs, and the codec timing. r2 carries
// the latency percentiles and gets the longest leg: at a full-length
// run's budget it holds the 1000 arrivals a p99 needs on either workload.
var tracedPhases = struct {
	warm, untraced, client, direct, codec float64
	open                                  [4]float64
}{
	warm: 0.5 / 24, untraced: 2.5 / 24, client: 3.0 / 24, direct: 2.0 / 24, codec: 0.5 / 24,
	open: [4]float64{1.5 / 24, 7.5 / 24, 3.0 / 24, 2.0 / 24},
}

// rpcTypes are the RPCs an aggregation causes (membership and gossip
// traffic is not per-aggregation work).
var rpcTypes = []string{wire.TypeAggregate, wire.TypeLookup, wire.TypeProbe, wire.TypeSelect, wire.TypeReserve, wire.TypeRelease}

// subtract returns after − before for counters and latency sketches, the
// two instrument kinds the ledger reads.
func subtract(after, before obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{}
	prevC := make(map[string]uint64, len(before.Counters))
	for _, c := range before.Counters {
		prevC[c.Name] = c.Value
	}
	for _, c := range after.Counters {
		out.Counters = append(out.Counters, obs.CounterValue{Name: c.Name, Value: c.Value - prevC[c.Name]})
	}
	prevL := make(map[string]obs.LatencyValue, len(before.Latencies))
	for _, l := range before.Latencies {
		prevL[l.Name] = l
	}
	for _, l := range after.Latencies {
		p := prevL[l.Name]
		d := obs.LatencyValue{Name: l.Name, Count: l.Count - p.Count, Sum: l.Sum - p.Sum, Zeros: l.Zeros - p.Zeros}
		old := make(map[int]uint64, len(p.Buckets))
		for _, b := range p.Buckets {
			old[b.Idx] = b.Count
		}
		for _, b := range l.Buckets {
			if n := b.Count - old[b.Idx]; n > 0 {
				d.Buckets = append(d.Buckets, obs.LatencyBucket{Idx: b.Idx, Low: b.Low, Count: n})
			}
		}
		out.Latencies = append(out.Latencies, d)
	}
	return out
}

func latency(snap obs.Snapshot, name string) obs.LatencyValue {
	for _, l := range snap.Latencies {
		if l.Name == name {
			return l
		}
	}
	return obs.LatencyValue{Name: name}
}

// sumPrefix adds up every counter whose name starts with prefix.
func sumPrefix(snap obs.Snapshot, prefix string) float64 {
	var n float64
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			n += float64(c.Value)
		}
	}
	return n
}

// merged is the fleet view: every peer's and every client's registry in
// one snapshot.
func merged(o *overlay, clientRegs []*obs.Registry) (obs.Snapshot, error) {
	var snaps []obs.Snapshot
	for _, r := range o.regs {
		snaps = append(snaps, r.Snapshot())
	}
	for _, r := range clientRegs {
		snaps = append(snaps, r.Snapshot())
	}
	return obs.MergeSnapshots(snaps...)
}

// directCall is Peer.Aggregate on the serving peer: no client hop, no
// admission queue.
func directCall(o *overlay) aggregator {
	path := make([]service.Name, len(o.path))
	for i, s := range o.path {
		path[i] = service.Name(s)
	}
	return func(req netproto.AggRequest) (*netproto.AggResult, error) {
		userQoS, err := qos.NewVector(qos.Range("rate", req.MinRate, 1e9))
		if err != nil {
			return nil, err
		}
		plan, err := o.peers[0].Aggregate(path, userQoS, req.Duration)
		if err != nil {
			return nil, err
		}
		return &netproto.AggResult{OK: true, SessionID: plan.SessionID, Chain: plan.Peers, Cost: plan.Cost}, nil
	}
}

// spanWrap records one benchmark-side span per call, each caller in its
// own recorder, under the request's index in the seed's stream.
func spanWrap(name string, recs []*recorder) func(caller int, req uint64, call func()) {
	return func(caller int, req uint64, call func()) {
		r := recs[caller]
		id := r.begin(name, -1, req)
		call()
		r.end(id)
	}
}

// rate is a whole loop's OK completions per second.
func rate(c *outcome) float64 { return float64(c.ok) / c.wall.Seconds() }

// runWireTraced is the -trace run of a wire workload: one obs.Registry
// per peer and per client, merged, gives the counts and the stage
// histograms; benchmark-side spans wrap Client.Aggregate and
// Peer.Aggregate; the program's own span Tracer stays off.
func runWireTraced(name string, w wireWorkload, seed uint64, budget time.Duration) (*report, error) {
	rep := newReport()
	share := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }
	callers := runtime.GOMAXPROCS(0)

	// Both overlays stand for the whole run — the untraced base (Metrics
	// nil everywhere) and the metered one — so that each loop runs beside
	// the same heap: the collector's pace follows the live heap, and a
	// closed overlay's share of it stays reachable for some twenty
	// seconds, which lifts the goodput of whatever runs next.
	plain, err := startOverlay(w, seed, false)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	o, err := startOverlay(w, seed, true)
	if err != nil {
		return nil, err
	}
	defer o.close()
	plainCalls, closePlain, err := clientCalls(plain, callers, nil)
	if err != nil {
		return nil, err
	}
	defer closePlain()

	clientRegs := make([]*obs.Registry, callers+openLoopConns)
	for i := range clientRegs {
		clientRegs[i] = obs.NewRegistry()
	}
	closedCalls, closeClosed, err := clientCalls(o, callers, clientRegs[:callers])
	if err != nil {
		return nil, err
	}
	defer closeClosed()
	openCalls, closeOpen, err := clientCalls(o, openLoopConns, clientRegs[callers:])
	if err != nil {
		return nil, err
	}
	defer closeOpen()

	origin := time.Now()
	recs := make([]*recorder, callers)
	for i := range recs {
		recs[i] = newRecorder(origin)
	}
	closedLoop(plain, plainCalls, share(tracedPhases.warm), 0, nil)
	closedLoop(o, closedCalls, share(tracedPhases.warm), 0, nil)
	// The untraced base runs in two halves, one either side of the traced
	// loop: a process speeds up over its first quarter of a minute, and a
	// base taken only before would book that as negative overhead.
	untraced := closedLoop(plain, plainCalls, share(tracedPhases.untraced)/2, closedFirst, nil)
	before, err := merged(o, clientRegs)
	if err != nil {
		return nil, err
	}
	traced := closedLoop(o, closedCalls, share(tracedPhases.client), closedFirst, spanWrap("netproto.client_aggregate", recs))
	after, err := merged(o, clientRegs)
	if err != nil {
		return nil, err
	}
	second := closedLoop(plain, plainCalls, share(tracedPhases.untraced)/2, untracedSecondFirst, nil)
	untraced.add(second)
	untraced.wall += second.wall
	closedSnap := subtract(after, before)
	if traced.checkErr != nil {
		rep.failf("traced closed loop: %v", traced.checkErr)
	}
	if err := o.drained(); err != nil {
		rep.failf("after traced closed loop: %v", err)
	}

	direct := make([]aggregator, callers)
	for i := range direct {
		direct[i] = directCall(o)
	}
	directOut := closedLoop(o, direct, share(tracedPhases.direct), directFirst, spanWrap("netproto.peer_aggregate", recs))
	if directOut.checkErr != nil {
		rep.failf("direct closed loop: %v", directOut.checkErr)
	}
	if err := o.drained(); err != nil {
		rep.failf("after direct closed loop: %v", err)
	}

	// Open-loop legs, with the serving plane's counters read around r3.
	var preR3, r3Snap obs.Snapshot
	legs, err := openLegs(rep, o, openCalls, tracedPhases.open, budget, func(k int) error {
		var err error
		switch k {
		case 2:
			preR3, err = merged(o, clientRegs)
		case 3:
			var post obs.Snapshot
			post, err = merged(o, clientRegs)
			r3Snap = subtract(post, preR3)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	var lists [][]span
	for _, r := range recs {
		lists = append(lists, r.spans)
	}
	spans := mergeSpans(lists...)
	path, err := writeSpans(name, spans)
	if err != nil {
		return nil, err
	}

	// Counts per aggregation, over the traced closed loop.
	aggs := float64(latency(closedSnap, "agg.latency_seconds").Count)
	var rpcs, retried float64
	for _, t := range rpcTypes {
		rpcs += counter(closedSnap, "rpc."+t+".sent")
		retried += counter(closedSnap, "rpc."+t+".retried")
	}
	// Callers count a request's bytes as sent and its reply's as received,
	// so the two sums together are every byte that crossed the wire once.
	wireBytes := sumPrefix(closedSnap, "wire.bytes_sent.") + sumPrefix(closedSnap, "wire.bytes_recv.")
	rpcLat := latency(closedSnap, "rpc.latency_seconds")
	reuses, dials := counter(closedSnap, "wire.conn_reuses"), counter(closedSnap, "wire.conn_dials")
	hits, misses := counter(closedSnap, "probe.cache_hits"), counter(closedSnap, "probe.cache_misses")
	stageMs := func(stage string) float64 {
		return 1e3 * latency(closedSnap, "agg.stage_seconds."+stage).Quantile(0.5)
	}
	disc, comp, sel, resv := stageMs(obs.StageDiscovery), stageMs(obs.StageCompose), stageMs(obs.StageSelection), stageMs(obs.StageAdmission)
	clientT, directT := summarize(traced.latencies()), summarize(directOut.latencies())
	hop := clientT.Median - directT.Median
	shed := sumPrefix(r3Snap, "serve.shed.")
	admitted := counter(r3Snap, "serve.admitted")
	r4 := legs[3].out
	fs := failShare(traced, legs)
	dropped := ratio{}
	for _, l := range legs[:3] {
		dropped.Num += float64(l.out.dropped)
		dropped.Den += float64(l.out.sent)
	}
	codec := timeCodecs(o, share(tracedPhases.codec))
	if codec.err != nil {
		rep.failf("%v", codec.err)
	}

	values := map[string]float64{
		"wire.bytes_per_agg":                     perUnit(wireBytes, aggs),
		"netproto.rpcs_per_agg":                  perUnit(rpcs, aggs),
		"netproto.lookup_rpcs_per_agg":           perUnit(counter(closedSnap, "rpc.lookup.sent"), aggs),
		"netproto.rpc_ms_p50":                    1e3 * rpcLat.Quantile(0.5),
		"netproto.rpc_ms_p99":                    1e3 * rpcLat.Quantile(0.99),
		"netproto.rpc_retry_share":               perUnit(retried, rpcs),
		"netproto.transport.conn_reuse_share":    perUnit(reuses, reuses+dials),
		"netproto.transport.retransmits_per_agg": perUnit(counter(closedSnap, "wire.retransmits"), aggs),
		"netproto.discovery_ms_p50":              disc,
		"netproto.compose_ms_p50":                comp,
		"netproto.selection_ms_p50":              sel,
		"netproto.reserve_ms_p50":                resv,
		"netproto.probe_cache_hit_share":         perUnit(hits, hits+misses),
		"netproto.serve.queue_wait_ms_p99":       1e3 * latency(r3Snap, "serve.queue_wait_seconds").Quantile(0.99),
		"netproto.serve.shed_share":              perUnit(shed, shed+admitted),
		"netproto.serve.overload_goodput_per_s":  perUnit(float64(r4.ok), r4.wall.Seconds()),
		"netproto.client_hop_ms":                 hop,
		"netproto.unattributed_ms":               clientT.Median - (disc + comp + sel + resv) - hop,
		"load.lag_ms_p99":                        legs[1].lagP99,
		"load.dropped_share":                     dropped.value(),
		"agg_p50_ms":                             legs[1].out.windowMedian(legs[1].d, p50),
		"agg_p99_ms":                             legs[1].p99,
		"knee_rps":                               kneeOf(legs),
		"fail_share":                             fs.value(),
		"trace_overhead_share":                   1 - rate(traced)/rate(untraced),
	}
	for k, v := range codec.values {
		values[k] = v
	}
	rep.fill(perLayer, values)
	// attempted and failed count the closed loops, where a request can only
	// fail if the program fails it. The open-loop ladder is a probe for the
	// rate at which requests start to be shed or dropped, and a stall of the
	// host moves that rate: its failures are fail_share's and knee_rps's.
	for _, c := range []*outcome{untraced, traced, directOut} {
		rep.Attempted += c.sent
		rep.Failed += c.failed()
	}

	rep.notef("closed loops, %d callers: untraced %.5g ok/s (n=%d); metered+spans %.5g ok/s (n=%d); straight on the serving peer %.5g ok/s (n=%d)",
		callers, rate(untraced), untraced.ok, rate(traced), traced.ok, rate(directOut), directOut.ok)
	rep.notef("Client.Aggregate ms %s; Peer.Aggregate ms %s; %d spans -> %s", clientT, directT, len(spans), path)
	rep.notef("per aggregation over the traced closed loop (%g aggregations): rpcs %s, lookup rpcs %s, bytes on the wire %s",
		aggs, ratio{rpcs, aggs}, ratio{counter(closedSnap, "rpc.lookup.sent"), aggs}, ratio{wireBytes, aggs})
	for _, t := range rpcTypes {
		rep.notef("  rpc %-9s sent %8g  failed %g  retried %g", t, counter(closedSnap, "rpc."+t+".sent"),
			counter(closedSnap, "rpc."+t+".failed"), counter(closedSnap, "rpc."+t+".retried"))
	}
	rep.notef("rpc latency ms p50 %.4g p99 %.4g (n=%d); stage p50 ms: discovery %.4g compose %.4g selection %.4g reserve %.4g",
		1e3*rpcLat.Quantile(0.5), 1e3*rpcLat.Quantile(0.99), rpcLat.Count, disc, comp, sel, resv)
	rep.notef("conn_reuse_share %s; probe_cache_hit_share %s; rpc_retry_share %s",
		ratio{reuses, reuses + dials}, ratio{hits, hits + misses}, ratio{retried, rpcs})
	rep.notef("r3 serving plane: shed_share %s; queue wait n=%d; r4 goodput %s ok/s",
		ratio{shed, shed + admitted}, latency(r3Snap, "serve.queue_wait_seconds").Count, ratio{float64(r4.ok), r4.wall.Seconds()})
	rep.notef("knee_rps %g (r4 sustained=%v); fail_share %s; load.dropped_share %s; agg_p99_ms is p%g of r2 (n=%d)",
		kneeOf(legs), legs[3].sustained(), fs, dropped, 100*legs[1].p99Q, len(legs[1].lat))
	rep.notef("%s", codec.note)
	return rep, nil
}

// codecTiming is the codec microbenchmark's result.
type codecTiming struct {
	values map[string]float64
	note   string
	err    error // an encode or decode failed, or a round trip lost fields
}

// timeCodecs times wire.Binary and wire.JSON on the two messages that
// carry an aggregation's payload, shaped like the workload's: a lookup
// response (one offer) and the select request (the whole path's instance
// specs and candidate lists).
func timeCodecs(o *overlay, d time.Duration) codecTiming {
	inst := netproto.ToWire(&service.Instance{
		ID: "svc0#0", Service: "svc0",
		Qin:  qos.MustVector(qos.Sym("format", "F0"), qos.Range("rate", 0, 40)),
		Qout: qos.MustVector(qos.Sym("format", "F1"), qos.Range("rate", 21.5, 24)),
		R:    []float64{5, 5}, OutKbps: 50,
	})
	resp := &wire.Response{OK: true, Offers: []wire.Offer{{Instance: inst, Provider: o.peers[1].Addr()}}}
	req := &wire.Request{Type: wire.TypeSelect, Idx: len(o.path) - 1, UserAddr: o.peers[0].Addr(),
		DurationSec: sessionLength.Seconds(), Candidates: map[string][]string{}}
	for s := range o.path {
		in := inst
		in.ID, in.Service = fmt.Sprintf("svc%d#0", s), o.path[s]
		req.Instances = append(req.Instances, in)
		for c := 0; c < o.w.ProvidersPerInstance; c++ {
			req.Candidates[in.ID] = append(req.Candidates[in.ID], o.peers[1+c].Addr())
		}
	}

	out := codecTiming{values: make(map[string]float64)}
	// timeLoop calls fn, which handles both messages, until budget is
	// spent and returns ns and allocations per message.
	timeLoop := func(budget time.Duration, fn func()) (ns, allocs float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		calls := 0
		start := time.Now()
		for time.Since(start) < budget {
			for i := 0; i < 64; i++ {
				fn()
			}
			calls += 64
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return float64(elapsed) / float64(2*calls), float64(after.Mallocs-before.Mallocs) / float64(2*calls)
	}
	var sizes []string
	for _, c := range []wire.Codec{wire.NewBinary(), wire.JSON{}} {
		var reqBuf, respBuf []byte
		var gotReq wire.Request
		var gotResp wire.Response
		var codecErr error
		note := func(err error) {
			if err != nil && codecErr == nil {
				codecErr = err
			}
		}
		encode := func() {
			var err error
			reqBuf, err = c.AppendRequest(reqBuf[:0], 1, req)
			note(err)
			respBuf, err = c.AppendResponse(respBuf[:0], 1, resp)
			note(err)
		}
		decode := func() {
			_, err := c.DecodeRequest(reqBuf, &gotReq)
			note(err)
			_, err = c.DecodeResponse(respBuf, &gotResp)
			note(err)
		}
		encode() // warm the codec's buffers and intern table
		decode()
		enc, encAllocs := timeLoop(d/4, encode)
		dec, decAllocs := timeLoop(d/4, decode)
		allocs := encAllocs + decAllocs
		out.values["wire."+c.Name()+".enc_ns"] = enc
		out.values["wire."+c.Name()+".dec_ns"] = dec
		if c.Name() == o.w.Codec {
			out.values["wire.allocs_per_msg"] = allocs
		}
		sizes = append(sizes, fmt.Sprintf("%s: select request %d B, lookup response %d B, %.3g allocs per encode+decode of a message",
			c.Name(), len(reqBuf), len(respBuf), allocs))
		if codecErr != nil {
			out.err = fmt.Errorf("%s codec: %w", c.Name(), codecErr)
		} else if len(gotReq.Instances) != len(req.Instances) || len(gotResp.Offers) != len(resp.Offers) {
			out.err = fmt.Errorf("%s codec: round trip lost fields", c.Name())
		}
	}
	out.note = "codecs: " + strings.Join(sizes, "; ")
	return out
}
