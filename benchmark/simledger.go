package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/catalog"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/eventsim"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/selection"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// ledger is the traced simulator run's driver. It builds the environment
// the simulator builds (the wiring of sim.New: catalog, topology,
// registry, probe, selection, session, eventsim, core.Aggregator), from
// the same sim.Config, replays the requests sim.Run issued, and records a
// span around every call into a layer. Churn runs at the workload's rates
// (sim.ChurnCounts) but not with the same victims.
type ledger struct {
	cfg     sim.Config
	engine  *eventsim.Engine
	net     *topology.Network
	cat     *catalog.Catalog
	reg     *registry.Registry
	probes  *probe.Manager
	sess    *session.Manager
	sel     *selection.Selector
	agg     *core.Aggregator
	strat   core.Strategy
	metrics *obs.Registry

	rngChurn, rngProvider, rngReq *xrand.Source

	provides     map[topology.PeerID][]*service.Instance
	adoptPerJoin int
	apps         map[string]*service.Application

	rec       *recorder
	runSpan   int             // the eventsim.run span handlers are children of
	sizing    map[uint64]bool // IDs of the throw-away sessions the admit sizing opens
	provs     [][]topology.PeerID
	requests  uint64
	churns    uint64
	resolves  uint64
	hopSteps  uint64
	admits    uint64
	completed uint64
	// sizingOpened counts the throw-away sessions admitted; each adds one
	// completion event to the engine that the program's run does not have.
	sizingOpened uint64
}

// registryRefresh is sim.Config.RegistryRefresh's default: half the
// registry's default 10-minute TTL.
const registryRefresh = 5

func newLedger(cfg sim.Config) (*ledger, error) {
	root := xrand.New(cfg.Seed)
	l := &ledger{
		cfg:         cfg,
		engine:      eventsim.New(),
		strat:       cfg.Algorithm.Strategy(),
		metrics:     obs.NewRegistry(),
		rngChurn:    root.SplitLabeled("churn"),
		rngProvider: root.SplitLabeled("providers"),
		rngReq:      root.SplitLabeled("benchmark/replay"),
		provides:    make(map[topology.PeerID][]*service.Instance),
		apps:        make(map[string]*service.Application),
		sizing:      make(map[uint64]bool),
	}
	var err error
	if l.net, err = topology.New(cfg.Topology); err != nil {
		return nil, err
	}
	if l.cat, err = catalog.New(cfg.Catalog); err != nil {
		return nil, err
	}
	for _, a := range l.cat.Apps {
		l.apps[a.ID] = a
	}
	l.reg = registry.New(cfg.Registry, cfg.Seed)
	l.probes = probe.NewManager(cfg.Probe, l.net)
	l.sess = session.NewManager(l.net, l.engine)
	if l.sel, err = selection.New(cfg.Selection, l.probes, root.SplitLabeled("selection")); err != nil {
		return nil, err
	}
	cc := cfg.Compose
	cc.Scratch = compose.NewScratch()
	cc.Memo = compose.NewMemo()
	cc.Obs = obs.NewComposeCounters(l.metrics)
	cc.Memo.Obs = obs.NewMemoCounters(l.metrics)
	l.agg = &core.Aggregator{
		Registry:       l.reg,
		Sessions:       l.sess,
		PhiSelector:    l.sel,
		RandomSelector: selection.NewRandom(root.SplitLabeled("randsel")),
		FixedSelector:  selection.NewFixed(),
		ComposeConfig:  cc,
		RNG:            root.SplitLabeled("composerand"),
	}

	initial := make([]topology.PeerID, l.net.TotalCount())
	for i := range initial {
		initial[i] = topology.PeerID(i)
	}
	if err := l.reg.AddPeers(initial); err != nil {
		return nil, err
	}
	l.reg.Stabilize()
	total := 0
	for _, inst := range l.cat.AllInstances() {
		n := l.cat.ProviderCount(l.rngProvider, l.net.TotalCount())
		total += n
		seen := make(map[topology.PeerID]bool, n)
		for len(seen) < n {
			p := topology.PeerID(l.rngProvider.Intn(l.net.TotalCount()))
			if seen[p] {
				continue
			}
			seen[p] = true
			l.provides[p] = append(l.provides[p], inst)
			if err := l.reg.Register(p, inst, p, 0); err != nil {
				return nil, err
			}
		}
	}
	l.adoptPerJoin = (total + l.net.TotalCount() - 1) / l.net.TotalCount()
	l.sess.OnEnd = func(s *session.Session) {
		if l.sizing[s.ID] {
			delete(l.sizing, s.ID)
			return
		}
		l.completed++
	}
	return l, nil
}

func (l *ledger) span(name string) int { return l.rec.begin(name, l.runSpan, 0) }

// request replays one recorded request through the program's pipeline.
func (l *ledger) request(e trace.Entry) error {
	now := l.engine.Now()
	app := l.apps[e.App]
	if app == nil {
		return fmt.Errorf("replayed app %q not in the ledger's catalog", e.App)
	}
	lvl, err := qos.ParseLevel(e.Level)
	if err != nil {
		return err
	}
	user, perr := l.net.Peer(topology.PeerID(e.User))
	if perr != nil || !user.Alive {
		user = l.net.RandomAliveFrom(l.rngReq) // the recorded user departed here: different victims
	}
	if user == nil {
		return nil
	}
	l.requests++
	id := l.requests
	req := &service.Request{App: app, Level: lvl, UserQoS: l.cat.UserQoS(l.rngReq, lvl), Duration: e.Duration}
	root := l.rec.begin("request", l.runSpan, id)

	sp := l.rec.begin("registry.discover", root, id)
	prep := l.agg.PrepareDiscovery(user.ID, req, now)
	l.rec.end(sp)

	sp = l.rec.begin("compose.qcs", root, id)
	l.agg.PrepareCompose(prep, req, l.strat, l.rngReq)
	l.rec.end(sp)

	if prep.Err == nil && prep.Composed && prep.ComposeErr == nil {
		// The user-side neighbor resolutions SelectPath opens with, run
		// here instead so probe.Manager.Resolve is timed on its real
		// inputs; inside AggregateFinish they then hit the probe cache.
		insts := prep.Path.Instances
		n := len(insts)
		for len(l.provs) < n {
			l.provs = append(l.provs, nil)
		}
		for k := 0; k < n; k++ {
			l.provs[k] = prep.Disc.Providers(k, insts[k], now, l.provs[k][:0])
			sp = l.rec.begin("probe.resolve", root, id)
			l.probes.Resolve(user.ID, l.provs[k], probe.DirectRank(n-k), now)
			l.rec.end(sp)
			l.resolves++
		}
		// Sizing: the first hop's selection step, over probed candidates.
		sp = l.rec.beginSizing("selection.select", root, id)
		l.sel.SelectNext(user.ID, insts[n-1], l.provs[n-1], req.Duration, now, probe.DirectRank(1))
		l.rec.end(sp)
		l.hopSteps++
	}

	sp = l.rec.begin("core.finish", root, id)
	sess, err := l.agg.AggregateFinish(prep, user.ID, req, now, l.strat, l.rngReq)
	l.rec.end(sp)

	if err == nil {
		// Sizing: admission of the same path on the same peers, as a
		// throw-away session that ends before the next event.
		sp = l.rec.beginSizing("session.admit", root, id)
		dup, derr := l.sess.Admit(sess.User, sess.Instances, sess.Peers, 1e-9)
		l.rec.end(sp)
		l.admits++
		if derr == nil {
			l.sizing[dup.ID] = true
			l.sizingOpened++
		}
	}
	l.rec.end(root)
	return nil
}

func (l *ledger) depart(now float64) {
	sp := l.span("topology.churn")
	p := l.net.DepartRandom(now)
	l.rec.end(sp)
	if p == nil {
		return
	}
	l.churns++
	sp = l.span("session.departed")
	l.sess.PeerDeparted(p.ID, now)
	l.rec.end(sp)
	sp = l.span("probe.drop")
	l.probes.DropPeer(p.ID)
	l.rec.end(sp)
	sp = l.span("registry.write")
	_ = l.reg.RemovePeer(p.ID, false) // as the simulator: an abrupt departure's registrations age out by TTL
	l.rec.end(sp)
}

func (l *ledger) arrive(now float64) {
	sp := l.span("topology.churn")
	p, err := l.net.Join(now)
	l.rec.end(sp)
	if err != nil {
		return
	}
	l.churns++
	sp = l.span("registry.write")
	defer l.rec.end(sp)
	if err := l.reg.AddPeer(p.ID); err != nil {
		return
	}
	all := l.cat.AllInstances()
	for i := 0; i < l.adoptPerJoin; i++ {
		inst := all[l.rngProvider.Intn(len(all))]
		l.provides[p.ID] = append(l.provides[p.ID], inst)
		_ = l.reg.Register(p.ID, inst, p.ID, now) // as the simulator: a failed soft-state write is retried by the next refresh
	}
}

func (l *ledger) refresh(now float64) {
	sp := l.span("registry.refresh")
	defer l.rec.end(sp)
	for id := 0; id < l.net.TotalCount(); id++ {
		pid := topology.PeerID(id)
		insts := l.provides[pid]
		if len(insts) == 0 || !l.net.MustPeer(pid).Alive {
			continue
		}
		for _, inst := range insts {
			_ = l.reg.Register(pid, inst, pid, now) // as the simulator: a failed soft-state write is retried by the next refresh
		}
	}
}

// run is sim.Run's schedule — request events, churn and refresh tickers,
// the drain past the workload window — with every handler inside spans.
func (l *ledger) run(entries []trace.Entry) error {
	maxDur := l.cfg.Catalog.MaxDuration
	if maxDur <= 0 {
		maxDur = 60
	}
	horizon := l.cfg.Duration + maxDur
	var firstErr error
	for _, e := range entries {
		e := e
		l.engine.Schedule(e.T, func() {
			if err := l.request(e); err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	churn := l.engine.ScheduleEvery(0, 1, func() {
		now := l.engine.Now()
		if now >= horizon {
			return
		}
		dep, arr := sim.ChurnCounts(l.rngChurn, l.cfg.ChurnRate)
		for i := 0; i < dep; i++ {
			at := now + l.rngChurn.Float64()
			l.engine.Schedule(at, func() { l.depart(at) })
		}
		for i := 0; i < arr; i++ {
			at := now + l.rngChurn.Float64()
			l.engine.Schedule(at, func() { l.arrive(at) })
		}
	})
	refresh := l.engine.ScheduleEvery(registryRefresh, registryRefresh, func() { l.refresh(l.engine.Now()) })

	root := l.rec.begin("sim.run", -1, 0)
	l.runSpan = l.rec.begin("eventsim.run", root, 0)
	l.engine.RunUntil(horizon)
	churn.Cancel()
	refresh.Cancel()
	l.engine.Run()
	l.rec.end(l.runSpan)
	l.rec.end(root)
	return firstErr
}

// cpuSeconds reads the runtime's CPU accounting: total and GC seconds.
func cpuSeconds() (total, gc float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		total = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		gc = s[1].Value.Float64()
	}
	return total, gc
}

func counter(snap obs.Snapshot, name string) float64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func perUnit(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// runSimTraced is the -trace run of a simulator workload: one plain
// sim.Run with Config.Metrics and a TraceSink (counts, allocation and GC
// figures, the wall the ledger is compared against), then the ledger
// replay (span self times).
func runSimTraced(name string, w simWorkload, seed uint64) (*report, error) {
	rep := newReport()
	cfg := w.config(seed)
	cfg.Metrics = obs.NewRegistry()
	var entries []trace.Entry

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, gc0 := cpuSeconds()
	run, err := simOnce(cfg, func(e trace.Entry) { entries = append(entries, e) })
	if err != nil {
		return nil, err
	}
	cpu1, gc1 := cpuSeconds()
	runtime.ReadMemStats(&after)
	checkSimResult(rep, run.res)
	res := run.res
	issued := float64(res.Requests.Issued)

	l, err := newLedger(w.config(seed))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	l.rec = newRecorder(time.Now())
	if err := l.run(entries); err != nil {
		return nil, err
	}
	spans := l.rec.spans
	path, err := writeSpans(name, spans)
	if err != nil {
		return nil, err
	}
	if l.requests == 0 || l.requests > uint64(len(entries)) {
		rep.failf("ledger replayed %d of %d recorded requests", l.requests, len(entries))
	}

	self, count := selfTimes(spans)
	layers := layerSelf(spans)
	ledgerWall := time.Duration(spans[0].End - spans[0].Start)
	// Attributed time is the self time of every layer span; "request" and
	// "sim" are the ledger's own bookkeeping (the sizing spans included).
	var attributed time.Duration
	for layer, d := range layers {
		if layer != "request" && layer != "sim" {
			attributed += d
		}
	}
	infra := layers["registry"] + layers["eventsim"] + layers["topology"]
	// Compose and memo counters come from the run's Config.Metrics; the
	// sharded engine does not collect them (sim.Config.Shards), so there
	// the ledger's own serial replay supplies them.
	snap, composeReqs, countsFrom := cfg.Metrics.Snapshot(), issued-float64(res.Requests.DiscoveryFailed), "Config.Metrics"
	if counter(snap, "compose.runs") == 0 {
		snap, composeReqs, countsFrom = l.metrics.Snapshot(), float64(count["compose.qcs"]), "the ledger's registry"
	}
	reqs := float64(l.requests)
	lk := res.Lookup
	served := float64(lk.CacheHits + lk.CacheMisses)
	memoHits := counter(snap, "compose.memo_feed_hits") + counter(snap, "compose.memo_user_hits")
	memoAll := memoHits + counter(snap, "compose.memo_feed_misses") + counter(snap, "compose.memo_user_misses")
	composeRuns := counter(snap, "compose.runs")
	selSteps := float64(res.Selection.Informed + res.Selection.Fallbacks + res.Selection.Failures)
	admits := float64(res.Sessions.Admitted + res.Sessions.Rejected)
	events := float64(l.engine.Executed() - l.sizingOpened)
	wall := run.wall.Seconds()
	gapT := summarize(run.gapsMs)
	gapQ, gapP99 := atQuantile(run.gapsMs, 0.99)

	rep.fill(perLayer, map[string]float64{
		"registry.discover_us_per_req": perUnit(us(self["registry.discover"]), reqs),
		"registry.lookups_per_req":     perUnit(served, issued),
		"registry.hops_per_lookup":     lk.MeanHops(),
		"registry.cache_hit_share":     perUnit(float64(lk.CacheHits), served),
		"registry.write_us_per_churn":  perUnit(us(self["registry.write"]), float64(l.churns)),
		"compose.qcs_us_per_req":       perUnit(us(self["compose.qcs"]), reqs),
		"compose.vertices_per_run":     perUnit(counter(snap, "compose.vertices"), composeRuns),
		"compose.memo_hit_share":       perUnit(memoHits, memoAll),
		"core.finish_us_per_req":       perUnit(us(self["core.finish"]), reqs),
		"core.retries_per_req":         perUnit(composeRuns-composeReqs, composeReqs),
		"probe.resolve_us":             perUnit(us(self["probe.resolve"]), float64(l.resolves)),
		"probe.probes_per_req":         perUnit(float64(res.Probes.Probes), issued),
		"probe.cache_hit_share":        perUnit(float64(res.Probes.CacheHits), float64(res.Probes.CacheHits+res.Probes.Probes)),
		"selection.select_us_per_hop":  perUnit(us(self["selection.select"]), float64(l.hopSteps)),
		"selection.informed_share":     perUnit(float64(res.Selection.Informed), selSteps),
		"session.admit_us":             perUnit(us(self["session.admit"]), float64(l.admits)),
		"session.admit_fail_share":     perUnit(float64(res.Sessions.Rejected), admits),
		"eventsim.us_per_event":        perUnit(us(self["eventsim.run"]), events),
		"eventsim.events_per_req":      perUnit(events, reqs),
		"topology.churn_us_per_event":  perUnit(us(self["topology.churn"]), float64(l.churns)),
		"sim.allocs_per_req":           perUnit(float64(after.Mallocs-before.Mallocs), issued),
		"sim.bytes_per_req":            perUnit(float64(after.TotalAlloc-before.TotalAlloc), issued),
		"sim.gc_cpu_share":             perUnit(gc1-gc0, cpu1-cpu0),
		"sim.infra_share":              perUnit(infra.Seconds(), attributed.Seconds()),
		"sim.unattributed_share":       1 - attributed.Seconds()/wall,
		"sim.peer_min_per_s":           float64(w.Peers) * w.Duration / wall,
		"agg_p50_ms":                   gapT.Median,
		"agg_p99_ms":                   gapP99,
		"fail_share":                   1 - res.Psi.Value(),
		"trace_overhead_share":         (ledgerWall.Seconds() - wall) / wall,
	})
	rep.Attempted = int64(res.Requests.Issued)
	rep.notef("sim.Run (Metrics on, no spans): wall %.4g s, setup %.4g s, %d requests recorded", wall, run.setup.Seconds(), len(entries))
	rep.notef("commit gap ms: %s; agg_p99_ms is p%g", gapT, 100*gapQ)
	rep.notef("ledger replay: wall %.4g s, %d spans -> %s", ledgerWall.Seconds(), len(spans), path)
	rep.notef("ledger counts: %d requests, %d churn events, %d engine events, %d completed or failed sessions",
		l.requests, l.churns, int64(events), l.completed)
	for _, layer := range []string{"registry", "compose", "core", "probe", "session", "eventsim", "topology", "request"} {
		rep.notef("self time %-10s %9.4g s  share of attributed %s", layer, layers[layer].Seconds(),
			ratio{layers[layer].Seconds(), attributed.Seconds()})
	}
	rep.notef("compose counters from %s: %g runs for %g requests that reached composition", countsFrom, composeRuns, composeReqs)
	rep.notef("sizing spans (timed apart, not in the attributed total): selection.select %.4g s over %d steps, session.admit %.4g s over %d admissions",
		self["selection.select"].Seconds(), l.hopSteps, self["session.admit"].Seconds(), l.admits)
	rep.notef("registry.cache_hit_share %s; probe.cache_hit_share %s; selection.informed_share %s; session.admit_fail_share %s",
		ratio{float64(lk.CacheHits), served}, ratio{float64(res.Probes.CacheHits), float64(res.Probes.CacheHits + res.Probes.Probes)},
		ratio{float64(res.Selection.Informed), selSteps}, ratio{float64(res.Sessions.Rejected), admits})
	rep.notef("sim.unattributed_share = 1 - attributed %.4g s / sim.Run wall %.4g s; psi %s",
		attributed.Seconds(), wall, ratio{float64(res.Psi.Success), float64(res.Psi.Total())})
	return rep, nil
}
