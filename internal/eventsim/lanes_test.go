package eventsim

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// --- Reference model -------------------------------------------------
//
// refModel is an independently written executor of the engine's lane
// contract: events execute one at a time in (at, lane, seq) order,
// cancellation suppresses pending handlers, executed events are immune
// to Cancel. It shares no code with the engine, so agreement between the
// two is evidence, not tautology.

type refEvent struct {
	at        float64
	lane      int
	seq       uint64
	fn        func()
	cancelled bool
	done      bool
}

func (r *refEvent) Cancel() {
	if !r.done && !r.cancelled {
		r.cancelled = true
	}
}

type refModel struct {
	clock  float64
	seq    uint64
	events []*refEvent
}

func (m *refModel) now() float64 { return m.clock }

func (m *refModel) schedule(lane int, at float64, fn func()) canceler {
	ev := &refEvent{at: at, lane: lane, seq: m.seq, fn: fn}
	m.seq++
	m.events = append(m.events, ev)
	return ev
}

func (m *refModel) run() {
	for {
		var best *refEvent
		for _, ev := range m.events {
			if ev.done || ev.cancelled {
				continue
			}
			if best == nil || ev.at < best.at ||
				(ev.at == best.at && (ev.lane < best.lane ||
					(ev.lane == best.lane && ev.seq < best.seq))) {
				best = ev
			}
		}
		if best == nil {
			return
		}
		best.done = true
		m.clock = best.at
		best.fn()
	}
}

// canceler is what the scenario scripts keep of a scheduled event.
type canceler interface{ Cancel() }

// testSched abstracts the engine and the model so one scenario script
// drives both.
type testSched interface {
	now() float64
	schedule(lane int, at float64, fn func()) canceler
}

// laneSched schedules through AtLane.
type laneSched struct{ e *Engine }

func (s laneSched) now() float64 { return s.e.Now() }
func (s laneSched) schedule(lane int, at float64, fn func()) canceler {
	return s.e.AtLane(lane, at, fn)
}

// heapSched schedules through At, which has no lane parameter; scripts
// driving it must keep every event on lane 0.
type heapSched struct{ e *Engine }

func (s heapSched) now() float64 { return s.e.Now() }
func (s heapSched) schedule(lane int, at float64, fn func()) canceler {
	return s.e.At(at, fn)
}

// --- Scenario generator ----------------------------------------------

// scenario is a deterministic schedule script: every event's behaviour —
// what it appends to the log, what it schedules next, what it cancels —
// is a pure function of (seed, event id). Timestamps are drawn from a
// tiny grid so equal times across lanes are the norm, not the exception,
// and lanes are centred on 0 so negative lanes occur too.
type scenario struct {
	seed    uint64
	lanes   int // lanes used by the script: -lanes/2 .. lanes-1-lanes/2
	initial int // events scheduled up front
	maxID   int // hard cap on total events (stops runaway growth)
}

func (sc scenario) lane(rng *xrand.Source) int { return rng.Intn(sc.lanes) - sc.lanes/2 }

// play runs the scenario on s and returns the execution log.
func (sc scenario) play(s testSched) []string {
	var log []string
	handles := make(map[int]canceler)
	nextID := 0
	var spawn func(id int)
	spawn = func(id int) {
		rng := xrand.New(xrand.MixIndex(sc.seed, uint64(id)))
		// Behaviour draws are fixed per id regardless of executor.
		nKids := rng.Intn(3)             // 0..2 children
		cancelTarget := rng.Intn(4) == 0 // cancel some earlier event
		log = append(log, fmt.Sprintf("%d@%.2f", id, s.now()))
		if cancelTarget && id > 0 {
			victim := rng.Intn(id)
			if h := handles[victim]; h != nil {
				h.Cancel()
			}
		}
		for k := 0; k < nKids && nextID < sc.maxID; k++ {
			kidID := nextID
			nextID++
			kidLane := sc.lane(rng)
			// Time grid: now, now+0.5, or now+1 — schedule-at-current-time
			// and cross-lane ties both occur constantly.
			dt := float64(rng.Intn(3)) * 0.5
			handles[kidID] = s.schedule(kidLane, s.now()+dt, func() { spawn(kidID) })
		}
	}
	rng := xrand.New(sc.seed)
	for i := 0; i < sc.initial; i++ {
		id := nextID
		nextID++
		lane := sc.lane(rng)
		at := float64(rng.Intn(5)) * 0.5
		handles[id] = s.schedule(lane, at, func() { spawn(id) })
	}
	switch e := s.(type) {
	case laneSched:
		e.e.RunUntil(1e6)
		e.e.Run()
	case heapSched:
		e.e.Run()
	case *refModel:
		e.run()
	}
	return log
}

func logsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedMatchesReferenceModel replays randomized scenarios — heavy
// on equal timestamps across lanes, negative lanes, cross-lane cancels,
// and schedule-at-current-time — on the reference model and on the
// engine. The logs must be identical.
func TestShardedMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		for _, lanes := range []int{2, 5, 9} {
			sc := scenario{seed: seed, lanes: lanes, initial: 8, maxID: 200}
			ref := sc.play(&refModel{})
			if len(ref) == 0 {
				t.Fatalf("seed %d: empty reference log", seed)
			}
			if got := sc.play(laneSched{New()}); !logsEqual(ref, got) {
				t.Fatalf("seed %d lanes=%d: log diverged from model\nref: %v\ngot: %v", seed, lanes, ref, got)
			}
		}
	}
}

// TestShardedSingleLaneMatchesHeapEngine pins the lane key's
// compatibility promise: with every event on lane 0, (at, 0, seq) and
// (at, seq) coincide, so AtLane(0, …) replays At exactly.
func TestShardedSingleLaneMatchesHeapEngine(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		sc := scenario{seed: seed, lanes: 1, initial: 6, maxID: 120}
		ref := sc.play(heapSched{New()})
		if got := sc.play(laneSched{New()}); !logsEqual(ref, got) {
			t.Fatalf("seed %d: AtLane(0) diverged from At\nref: %v\ngot: %v", seed, ref, got)
		}
		if got := sc.play(&refModel{}); !logsEqual(ref, got) {
			t.Fatalf("seed %d: At diverged from the model\nref: %v\ngot: %v", seed, ref, got)
		}
	}
}

// --- Targeted adversarial cases --------------------------------------

// TestEqualTimestampsAcrossShards: events at the same instant on
// different lanes run in lane order, negative lanes first, then in
// scheduling order within a lane.
func TestEqualTimestampsAcrossShards(t *testing.T) {
	e := New()
	var got []int
	// Schedule in deliberately scrambled lane order; seq breaks the tie
	// between the two lane-1 events.
	e.AtLane(3, 5, func() { got = append(got, 3) })
	e.AtLane(1, 5, func() { got = append(got, 10) })
	e.At(5, func() { got = append(got, 0) })
	e.AtLane(1, 5, func() { got = append(got, 11) })
	e.AtLane(-1, 5, func() { got = append(got, -1) })
	e.AtLane(2, 5, func() { got = append(got, 2) })
	e.AtLane(0, 4, func() { got = append(got, 4) }) // earlier time beats any lane
	e.Run()
	want := []int{4, -1, 0, 10, 11, 2, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestCancelFromOtherShard: a handler on one lane cancels a same-time
// event on a later lane. The victim is later in the total order, so the
// cancel must win.
func TestCancelFromOtherShard(t *testing.T) {
	e := New()
	ran := false
	victim := e.AtLane(3, 7, func() { ran = true })
	e.AtLane(0, 7, func() { victim.Cancel() })
	e.RunUntil(100)
	if ran {
		t.Fatal("cancelled cross-lane event ran")
	}
	if !victim.Cancelled() {
		t.Fatal("victim not reported cancelled")
	}
}

// TestScheduleAtCurrentTime: handlers scheduling at exactly Now() run at
// the same timestamp, after the scheduler, each in its lane's position.
func TestScheduleAtCurrentTime(t *testing.T) {
	e := New()
	var got []string
	e.AtLane(1, 2, func() {
		got = append(got, "a")
		e.At(e.Now(), func() { got = append(got, "a0") })
		e.AtLane(3, e.Now(), func() { got = append(got, "a3") })
	})
	e.AtLane(2, 2, func() { got = append(got, "b") })
	e.RunUntil(10)
	// At t=2: lane 1 "a" first; its children (lanes 0 and 3, later seq)
	// land at t=2 too. Lane 0 sorts before lane 2's "b", so it runs next;
	// lane 3 runs after "b".
	want := "[a a0 b a3]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestShardEventCancelAfterExecutionInert is the regression test for the
// event-reuse hazard: a handle retained past execution must be inert —
// Cancel must not resurrect, suppress, or report anything.
func TestShardEventCancelAfterExecutionInert(t *testing.T) {
	e := New()
	runs := 0
	h := e.AtLane(1, 1, func() { runs++ })
	e.RunUntil(1)
	h.Cancel() // stale cancel, long after execution
	if h.Cancelled() {
		t.Fatal("executed event reports Cancelled after a stale Cancel")
	}
	// The heap slot is long recycled; new events must be unaffected.
	ran := false
	e.AtLane(1, 2, func() { ran = true })
	e.Run()
	if !ran || runs != 1 {
		t.Fatalf("stale Cancel perturbed the queue: runs=%d ran=%v", runs, ran)
	}
}

// TestShardEventSelfCancelInert: an event cancelling itself from its own
// handler is a no-op — the state was pinned to executed before fn ran.
func TestShardEventSelfCancelInert(t *testing.T) {
	e := New()
	var h *Event
	ran := false
	h = e.AtLane(2, 1, func() {
		ran = true
		h.Cancel()
	})
	e.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if h.Cancelled() {
		t.Fatal("self-Cancel during execution flipped state")
	}
}

// TestShardedTickerCancel: a ticker (lane 0) cancelled by an event on a
// lower lane at the very instant of its next occurrence does not fire
// that occurrence.
func TestShardedTickerCancel(t *testing.T) {
	e := New()
	var fires []Time
	tk := e.Every(1, 1, func() { fires = append(fires, e.Now()) })
	e.AtLane(-1, 3, func() { tk.Cancel() })
	e.RunUntil(100)
	if fmt.Sprint(fires) != "[1 2]" {
		t.Fatalf("ticker fired at %v, want [1 2]", fires)
	}
	if !tk.Cancelled() {
		t.Fatal("ticker not reported cancelled")
	}
}

// TestShardedPendingExecuted sanity-checks the bookkeeping surface with
// events spread over lanes.
func TestShardedPendingExecuted(t *testing.T) {
	e := New()
	for i := 0; i < 9; i++ {
		e.AtLane(i%3, float64(i), func() {})
	}
	if e.Pending() != 9 {
		t.Fatalf("Pending = %d, want 9", e.Pending())
	}
	e.RunUntil(3.5)
	if e.Executed() != 4 {
		t.Fatalf("Executed = %d, want 4", e.Executed())
	}
	if e.Now() != 3.5 {
		t.Fatalf("Now = %g, want 3.5", e.Now())
	}
	e.Run()
	if e.Pending() != 0 || e.Executed() != 9 {
		t.Fatalf("after Run: pending=%d executed=%d", e.Pending(), e.Executed())
	}
}

// TestShardedPastSchedulingPanics: the past is the past on every lane;
// a negative lane is merely an early one.
func TestShardedPastSchedulingPanics(t *testing.T) {
	e := New()
	e.AtLane(2, 5, func() {})
	e.Run()
	for _, lane := range []int{-3, 0, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("lane %d: scheduling in the past did not panic", lane)
				}
			}()
			e.AtLane(lane, 1, func() {})
		}()
	}
	ran := false
	e.AtLane(-3, 5, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("negative-lane event at Now did not run")
	}
}

// FuzzShardMergeOrdering feeds arbitrary byte strings as schedule
// scripts: each byte triple (lane, timeslot, op) schedules, nests, or
// cancels events on lanes -4..3. The engine must replay the reference
// model byte for byte.
func FuzzShardMergeOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 0, 1, 7, 0, 2, 3, 0, 0, 3, 0, 1})
	f.Add([]byte{255, 255, 255, 0, 0, 0, 128, 64, 32})
	run := func(s testSched, script []byte) []string {
		var log []string
		var handles []canceler
		for i := 0; i+2 < len(script); i += 3 {
			lane := int(script[i])%8 - 4
			at := float64(script[i+1]%8) / 2
			op := script[i+2] % 3
			id := i
			switch op {
			case 0: // plain event
				handles = append(handles, s.schedule(lane, at, func() {
					log = append(log, fmt.Sprintf("p%d@%.1f", id, s.now()))
				}))
			case 1: // event that nests a child at the same instant
				handles = append(handles, s.schedule(lane, at, func() {
					log = append(log, fmt.Sprintf("n%d@%.1f", id, s.now()))
					s.schedule((lane+5)%8-4, s.now(), func() {
						log = append(log, fmt.Sprintf("k%d@%.1f", id, s.now()))
					})
				}))
			case 2: // event that cancels an earlier handle
				handles = append(handles, s.schedule(lane, at, func() {
					log = append(log, fmt.Sprintf("x%d@%.1f", id, s.now()))
					if len(handles) > 0 {
						handles[id/3%len(handles)].Cancel()
					}
				}))
			}
		}
		switch e := s.(type) {
		case laneSched:
			e.e.RunUntil(100)
			e.e.Run()
		case *refModel:
			e.run()
		}
		return log
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		ref := run(&refModel{}, script)
		if got := run(laneSched{New()}, script); !logsEqual(ref, got) {
			t.Fatalf("engine diverged from the model\nref: %v\ngot: %v", ref, got)
		}
	})
}

// TestShardedSchedulerAdapters drives the engine through a Runner-typed
// variable, with events scheduled through Schedule and ScheduleEvery —
// the names the benchmark ledger calls — alongside At and After.
func TestShardedSchedulerAdapters(t *testing.T) {
	e := New()
	var r Runner = e
	var got []string
	e.Schedule(1, func() {
		got = append(got, "at")
		e.After(0.5, func() { got = append(got, "after") })
	})
	tick := e.ScheduleEvery(2, 1, func() { got = append(got, "tick") })
	r.RunUntil(3)
	tick.Cancel()
	r.Run()
	want := "[at after tick tick]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v, want %v", got, want)
	}
	if r.Now() != 3 || r.Executed() != 4 || r.Pending() != 0 || r.Step() {
		t.Fatalf("Runner surface: now=%g executed=%d pending=%d", r.Now(), r.Executed(), r.Pending())
	}
}

// TestRunUntilDeterministicAcrossLookahead: the execution order never
// depends on how far ahead each RunUntil call reaches — stepping the
// deadline in small or large increments runs the same sequence.
func TestRunUntilDeterministicAcrossLookahead(t *testing.T) {
	build := func(step float64) (ids []int, times []float64) {
		e := New()
		rng := xrand.New(99)
		for i := 0; i < 100; i++ {
			i := i
			e.AtLane(rng.Intn(4), float64(rng.Intn(20))/4, func() {
				ids = append(ids, i)
				times = append(times, e.Now())
			})
		}
		for d := step; d < 10+step; d += step {
			e.RunUntil(d)
		}
		return ids, times
	}
	ref, _ := build(0.1)
	if len(ref) != 100 {
		t.Fatalf("ran %d of 100 events", len(ref))
	}
	for _, step := range []float64{0.25, 1, 100} {
		got, times := build(step)
		if !sort.Float64sAreSorted(times) {
			t.Fatalf("deadline step %g: execution times not monotone", step)
		}
		if fmt.Sprint(ref) != fmt.Sprint(got) {
			t.Fatalf("deadline step %g changed the execution sequence", step)
		}
	}
}
