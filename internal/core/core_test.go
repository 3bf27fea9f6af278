package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/eventsim"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/topology"
)

type fixture struct {
	net    *topology.Network
	engine *eventsim.Engine
	agg    *Aggregator
	app    *service.Application
}

// newFixture builds a 30-peer grid with a 2-service application: "src"
// (formats A→M) feeding "snk" (M→OUT), each with 2 instances on 4
// providers.
func newFixture(t *testing.T) *fixture { return newFixtureWith(t, Config{Seed: 1}) }

// newFixtureWith builds newFixture's grid from cfg.
func newFixtureWith(t *testing.T, cfg Config) *fixture {
	t.Helper()
	net, err := topology.New(topology.Default(1, 30))
	if err != nil {
		t.Fatal(err)
	}
	engine := eventsim.New()
	agg, err := New(cfg, net, engine)
	if err != nil {
		t.Fatal(err)
	}
	reg := agg.Registry
	for i := 0; i < 30; i++ {
		if err := reg.AddPeer(topology.PeerID(i)); err != nil {
			t.Fatal(err)
		}
	}
	f := &fixture{
		net:    net,
		engine: engine,
		agg:    agg,
		app:    &service.Application{ID: "app", Path: []service.Name{"src", "snk"}},
	}
	mk := func(svc service.Name, i int, inFmt, outFmt string, r float64) *service.Instance {
		return &service.Instance{
			ID:      fmt.Sprintf("%s#%d", svc, i),
			Service: svc,
			Qin:     qos.MustVector(qos.Sym("format", inFmt)),
			Qout:    qos.MustVector(qos.Sym("format", outFmt), qos.Range("rate", 20, 25)),
			R:       resource.Vec2(r, r),
			OutKbps: 10,
		}
	}
	// Disjoint provider pools: src#0 on peers 2–5, src#1 on 6–9,
	// snk#0 on 10–13, snk#1 on 14–17.
	for i := 0; i < 2; i++ {
		src := mk("src", i, "A", "M", 20+float64(i)*30)
		snk := mk("snk", i, "M", "OUT", 20+float64(i)*30)
		for p := 0; p < 4; p++ {
			if err := reg.Register(topology.PeerID(p), src, topology.PeerID(2+4*i+p), 0); err != nil {
				t.Fatal(err)
			}
			if err := reg.Register(topology.PeerID(p), snk, topology.PeerID(10+4*i+p), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

func (f *fixture) request(dur float64) *service.Request {
	return &service.Request{
		App:      f.app,
		Level:    qos.Average,
		UserQoS:  qos.MustVector(qos.Range("rate", 10, 1e9)),
		Duration: dur,
	}
}

func TestAggregateAllStrategies(t *testing.T) {
	for _, strat := range []Strategy{StrategyQSA, StrategyRandom, StrategyFixed,
		{Compose: ComposeRandom, Select: SelectPhi}, {Compose: ComposeQCS, Select: SelectRandom}} {
		f := newFixture(t)
		sess, err := f.agg.Aggregate(0, f.request(5), 0, strat)
		if err != nil {
			t.Fatalf("%+v: %v", strat, err)
		}
		if len(sess.Instances) != 2 || len(sess.Peers) != 2 {
			t.Fatalf("%+v: session shape %v/%v", strat, sess.Instances, sess.Peers)
		}
		if sess.State != session.Active {
			t.Fatalf("%+v: state %v", strat, sess.State)
		}
	}
}

func TestQCSPicksCheapestInstances(t *testing.T) {
	f := newFixture(t)
	sess, err := f.agg.Aggregate(0, f.request(5), 0, StrategyQSA)
	if err != nil {
		t.Fatal(err)
	}
	// Instance #0 of each service is the cheap one (R=20 vs 50).
	if sess.Instances[0].ID != "src#0" || sess.Instances[1].ID != "snk#0" {
		t.Fatalf("QCS chose %v, %v", sess.Instances[0].ID, sess.Instances[1].ID)
	}
	if c := f.agg.ComposeConfig.PathCost(sess.Instances); c <= 0 {
		t.Fatalf("PathCost = %v", c)
	}
}

func TestStageDiscovery(t *testing.T) {
	f := newFixture(t)
	req := f.request(5)
	req.App = &service.Application{ID: "x", Path: []service.Name{"ghost"}}
	_, err := f.agg.Aggregate(0, req, 0, StrategyQSA)
	if StageOf(err) != StageDiscovery {
		t.Fatalf("stage = %v, err = %v", StageOf(err), err)
	}
}

func TestStageCompose(t *testing.T) {
	f := newFixture(t)
	req := f.request(5)
	req.UserQoS = qos.MustVector(qos.Range("rate", 30, 1e9)) // nobody produces ≥30
	_, err := f.agg.Aggregate(0, req, 0, StrategyQSA)
	if StageOf(err) != StageCompose {
		t.Fatalf("stage = %v, err = %v", StageOf(err), err)
	}
}

func TestStageSelection(t *testing.T) {
	f := newFixture(t)
	// Depart every snk provider (peers 10..17): selection cannot place it.
	for p := 10; p <= 17; p++ {
		f.net.Depart(topology.PeerID(p), 0)
	}
	_, err := f.agg.Aggregate(0, f.request(5), 0, StrategyQSA)
	if StageOf(err) != StageSelection {
		t.Fatalf("stage = %v, err = %v", StageOf(err), err)
	}
}

func TestStageAdmission(t *testing.T) {
	f := newFixture(t)
	// The random selector ignores load, so saturating all providers forces
	// an admission failure.
	f.net.AlivePeers(func(p *topology.Peer) {
		p.Ledger.Reserve(p.Capacity)
	})
	_, err := f.agg.Aggregate(0, f.request(5), 0, StrategyRandom)
	if StageOf(err) != StageAdmission {
		t.Fatalf("stage = %v, err = %v", StageOf(err), err)
	}
}

func TestInvalidRequest(t *testing.T) {
	f := newFixture(t)
	req := f.request(0) // zero duration
	if _, err := f.agg.Aggregate(0, req, 0, StrategyQSA); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestRecover(t *testing.T) {
	f := newFixtureWith(t, Config{Seed: 1, Recovery: true})
	sess, err := f.agg.Aggregate(0, f.request(30), 0, StrategyQSA)
	if err != nil {
		t.Fatal(err)
	}
	victim := sess.Peers[0]
	f.net.Depart(victim, 1)
	if err := f.agg.Depart(victim, 1); err != nil {
		t.Fatal(err)
	}
	if sess.State != session.Active {
		t.Fatalf("state = %v after recoverable departure", sess.State)
	}
	if sess.Peers[0] == victim {
		t.Fatal("component not re-homed")
	}
	if sess.Recovered != 1 {
		t.Fatalf("Recovered = %d", sess.Recovered)
	}
}

func TestRecoverFailsWhenNoProviders(t *testing.T) {
	f := newFixtureWith(t, Config{Seed: 1, Recovery: true})
	sess, err := f.agg.Aggregate(0, f.request(30), 0, StrategyQSA)
	if err != nil {
		t.Fatal(err)
	}
	// Kill all src providers (peers 2..9), then the chosen src host.
	for p := 2; p <= 9; p++ {
		if pp := f.net.MustPeer(topology.PeerID(p)); pp.Alive {
			f.net.Depart(topology.PeerID(p), 1)
		}
	}
	f.agg.Sessions.PeerDeparted(sess.Peers[0], 1)
	if sess.State != session.Failed {
		t.Fatalf("state = %v, recovery should have failed with no providers", sess.State)
	}
}

func TestRetryFallsOverToNextTier(t *testing.T) {
	f := newFixture(t)
	// Saturate the cheap instances' provider pools (src#0 on 2–5, snk#0 on
	// 10–13): single-shot QSA fails, QSA with retries lands on tier #1.
	for _, p := range []int{2, 3, 4, 5, 10, 11, 12, 13} {
		pr := f.net.MustPeer(topology.PeerID(p))
		pr.Ledger.Reserve(pr.Capacity)
	}
	single := StrategyQSA
	single.Retries = 0
	if _, err := f.agg.Aggregate(0, f.request(5), 0, single); err == nil {
		t.Fatal("single-shot QSA should fail with the cheap tier saturated")
	}
	sess, err := f.agg.Aggregate(0, f.request(5), 0, StrategyQSA)
	if err != nil {
		t.Fatalf("retrying QSA should fall over to the expensive tier: %v", err)
	}
	if sess.Instances[0].ID != "src#1" || sess.Instances[1].ID != "snk#1" {
		t.Fatalf("retry chose %v, %v", sess.Instances[0].ID, sess.Instances[1].ID)
	}
}

func TestRetryGivesUpWhenLayerExhausted(t *testing.T) {
	f := newFixture(t)
	// Saturate ALL providers: even retries cannot admit.
	f.net.AlivePeers(func(p *topology.Peer) { p.Ledger.Reserve(p.Capacity) })
	strat := StrategyQSA
	strat.Retries = 10
	_, err := f.agg.Aggregate(0, f.request(5), 0, strat)
	if err == nil {
		t.Fatal("fully saturated grid must still reject")
	}
	if s := StageOf(err); s != StageSelection && s != StageAdmission {
		t.Fatalf("stage = %v", s)
	}
}

func TestStageOfForeignError(t *testing.T) {
	if StageOf(nil) != StageNone {
		t.Fatal("StageOf(nil) must be StageNone")
	}
	if StageOf(errors.New("boom")) != StageNone {
		t.Fatal("foreign errors must map to StageNone")
	}
	wrapped := fmt.Errorf("outer: %w", &ErrAggregation{StageCompose, errors.New("in")})
	if StageOf(wrapped) != StageCompose {
		t.Fatal("wrapped aggregation errors must unwrap")
	}
}

func TestStageString(t *testing.T) {
	for s, want := range map[Stage]string{
		StageNone: "admitted", StageDiscovery: "discovery", StageCompose: "compose",
		StageSelection: "selection", StageAdmission: "admission", Stage(9): "Stage(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestErrAggregationUnwrap(t *testing.T) {
	inner := errors.New("cause")
	e := &ErrAggregation{StageAdmission, inner}
	if !errors.Is(e, inner) {
		t.Fatal("Unwrap broken")
	}
	if e.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestUnknownComposer(t *testing.T) {
	f := newFixture(t)
	_, err := f.agg.Aggregate(0, f.request(5), 0, Strategy{Compose: ComposeKind(9), Select: SelectPhi})
	if StageOf(err) != StageCompose {
		t.Fatalf("stage = %v", StageOf(err))
	}
}

// pids collects a provider set into a comparable string-keyed map.
func pidSet(ps []topology.PeerID) map[topology.PeerID]bool {
	m := make(map[topology.PeerID]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

// TestProvidersTTLConsistentAcrossRetries pins the retry contract of the
// discovery snapshot: every attempt of one Aggregate call evaluates
// provider liveness against the same clock, so repeated Providers queries
// on a Discovery return identical, TTL-filtered sets, and a later clock
// sees expirations without a fresh lookup.
func TestProvidersTTLConsistentAcrossRetries(t *testing.T) {
	f := newFixture(t)
	// One late registration: peer 20 joins src#0's provider set at t=5,
	// so it expires at 15 while the t=0 registrations expire at 10.
	disc0 := f.agg.PrepareDiscovery(0, f.request(5), 0)
	if disc0.Err != nil {
		t.Fatal(disc0.Err)
	}
	src0 := disc0.Disc.Layers[0][0]
	if err := f.agg.Registry.Register(0, src0, 20, 5); err != nil {
		t.Fatal(err)
	}

	prep := f.agg.PrepareDiscovery(0, f.request(5), 6)
	if prep.Err != nil {
		t.Fatal(prep.Err)
	}
	disc := prep.Disc
	inst := disc.Layers[0][0]
	first := disc.Providers(0, inst, 6, nil)
	if !pidSet(first)[20] || len(first) != 5 {
		t.Fatalf("expected 4 original + late provider at t=6, got %v", first)
	}
	// Simulated retry attempts: same snapshot, same clock, reused buffer.
	buf := first
	for attempt := 0; attempt < 3; attempt++ {
		buf = disc.Providers(0, inst, 6, buf[:0])
		if len(buf) != len(first) {
			t.Fatalf("attempt %d saw %v, first attempt saw %v", attempt, buf, first)
		}
		for i := range buf {
			if buf[i] != first[i] {
				t.Fatalf("attempt %d saw %v, first attempt saw %v", attempt, buf, first)
			}
		}
	}
	// Past the original TTL horizon only the late registration survives,
	// with no re-discovery needed.
	late := disc.Providers(0, inst, 12, nil)
	if len(late) != 1 || late[0] != 20 {
		t.Fatalf("expected only the late provider past t=10, got %v", late)
	}
	// An unknown instance yields the empty set, not a panic.
	ghost := &service.Instance{ID: "ghost", Service: "src"}
	if got := disc.Providers(0, ghost, 6, nil); len(got) != 0 {
		t.Fatalf("unknown instance returned %v", got)
	}
}

// TestInvalidRequestSpansAgree: for a request that fails validation,
// Aggregate and the PrepareDiscovery → PrepareCompose → AggregateFinish
// path return the same error and emit the same span events — the
// discovery span carries the wrapped "core: discovery failed: …" text on
// both.
func TestInvalidRequestSpansAgree(t *testing.T) {
	run := func(finish func(f *fixture, req *service.Request) error) ([]obs.Event, error) {
		f := newFixture(t)
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf, f.engine.Now)
		f.agg.Spans = obs.NewSpans(tr, 7)
		f.agg.ReqID = 1
		f.agg.ReqSpan = f.agg.Spans.Root(1).Context()
		err := finish(f, f.request(0)) // zero duration fails Validate
		if ferr := tr.Flush(); ferr != nil {
			t.Fatal(ferr)
		}
		evs, rerr := obs.ReadEvents(&buf)
		if rerr != nil {
			t.Fatal(rerr)
		}
		return evs, err
	}
	direct, errA := run(func(f *fixture, req *service.Request) error {
		_, err := f.agg.Aggregate(0, req, 0, StrategyQSA)
		return err
	})
	staged, errF := run(func(f *fixture, req *service.Request) error {
		p := f.agg.PrepareDiscovery(0, req, 0)
		f.agg.PrepareCompose(p, req, StrategyQSA, f.agg.RNG)
		_, err := f.agg.AggregateFinish(p, 0, req, 0, StrategyQSA, f.agg.RNG)
		return err
	})
	if StageOf(errA) != StageDiscovery || errF == nil || errA.Error() != errF.Error() {
		t.Fatalf("errors differ: Aggregate %v, AggregateFinish %v", errA, errF)
	}
	if len(direct) != 1 || direct[0].Stage != obs.StageDiscovery || direct[0].Err != errA.Error() {
		t.Fatalf("Aggregate span events %+v, want one discovery span carrying %q", direct, errA)
	}
	if !reflect.DeepEqual(direct, staged) {
		t.Fatalf("span events differ:\nAggregate       %+v\nAggregateFinish %+v", direct, staged)
	}
}

// TestPreparedMatchesAggregate pins the staged API the benchmark ledger
// times each layer through: over a few seeds and all three strategies,
// PrepareDiscovery → PrepareCompose → AggregateFinish, and
// PrepareDiscovery → AggregateFinish alone, admit the same sessions on
// the same hosts, fail the same requests and emit the same span stream
// as Aggregate.
func TestPreparedMatchesAggregate(t *testing.T) {
	type outcome struct {
		id    uint64
		insts []string
		hosts []topology.PeerID
		err   string
	}
	run := func(seed uint64, strat Strategy, mode string) ([]outcome, []obs.Event) {
		f := newFixtureWith(t, Config{Seed: seed})
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf, f.engine.Now)
		f.agg.Spans = obs.NewSpans(tr, seed)
		var out []outcome
		for i := 0; i < 4; i++ {
			req := f.request(5)
			if i == 2 {
				req.UserQoS = qos.MustVector(qos.Range("rate", 30, 1e9)) // fails at compose
			}
			user := topology.PeerID(20 + i)
			f.agg.ReqID = uint64(i + 1)
			f.agg.ReqSpan = f.agg.Spans.Root(f.agg.ReqID).Context()
			var sess *session.Session
			var err error
			switch mode {
			case "aggregate":
				sess, err = f.agg.Aggregate(user, req, 0, strat)
			case "staged":
				p := f.agg.PrepareDiscovery(user, req, 0)
				f.agg.PrepareCompose(p, req, strat, f.agg.RNG)
				sess, err = f.agg.AggregateFinish(p, user, req, 0, strat, f.agg.RNG)
			case "finish":
				p := f.agg.PrepareDiscovery(user, req, 0)
				sess, err = f.agg.AggregateFinish(p, user, req, 0, strat, f.agg.RNG)
			}
			var o outcome
			if err != nil {
				o.err = EventStage(err) + ": " + err.Error()
			} else {
				o.id, o.hosts = sess.ID, append([]topology.PeerID(nil), sess.Peers...)
				for _, in := range sess.Instances {
					o.insts = append(o.insts, in.ID)
				}
			}
			out = append(out, o)
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		evs, err := obs.ReadEvents(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return out, evs
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, strat := range []Strategy{StrategyQSA, StrategyRandom, StrategyFixed} {
			want, wantEvs := run(seed, strat, "aggregate")
			if want[0].err != "" || want[2].err == "" || len(wantEvs) == 0 {
				t.Fatalf("seed %d %+v: outcomes %+v and %d span events, want request 0 admitted, 2 failed, spans emitted", seed, strat, want, len(wantEvs))
			}
			for _, mode := range []string{"staged", "finish"} {
				got, gotEvs := run(seed, strat, mode)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d %+v %s: outcomes\n%+v\nwant %+v", seed, strat, mode, got, want)
				}
				if !reflect.DeepEqual(gotEvs, wantEvs) {
					t.Errorf("seed %d %+v %s: span streams differ (%d vs %d events)", seed, strat, mode, len(gotEvs), len(wantEvs))
				}
			}
		}
	}
}

// TestEventStage: a pipeline error is attributed to its own stage, and
// any other error to admission.
func TestEventStage(t *testing.T) {
	for s, want := range map[Stage]string{
		StageDiscovery: obs.StageDiscovery,
		StageCompose:   obs.StageCompose,
		StageSelection: obs.StageSelection,
		StageAdmission: obs.StageAdmission,
	} {
		err := fmt.Errorf("wrapped: %w", &ErrAggregation{Stage: s, Err: errors.New("x")})
		if got := EventStage(err); got != want {
			t.Errorf("EventStage(%v error) = %q, want %q", s, got, want)
		}
	}
	if got := EventStage(errors.New("session: insufficient resources")); got != obs.StageAdmission {
		t.Errorf("EventStage(foreign error) = %q, want %q", got, obs.StageAdmission)
	}
}
