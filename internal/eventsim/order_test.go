package eventsim

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// --- Reference model -------------------------------------------------
//
// refModel is an independently written executor of the engine's
// contract: events execute one at a time in (at, seq) order,
// cancellation suppresses pending handlers, executed events are immune
// to Cancel. It shares no code with the engine, so agreement between the
// two is evidence, not tautology.

type refEvent struct {
	at        float64
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

func (m *refModel) schedule(at float64, fn func()) canceler {
	ev := &refEvent{at: at, seq: m.seq, fn: fn}
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
			if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
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
	schedule(at float64, fn func()) canceler
}

// engineSched schedules through At.
type engineSched struct{ e *Engine }

func (s engineSched) now() float64 { return s.e.Now() }
func (s engineSched) schedule(at float64, fn func()) canceler {
	return s.e.At(at, fn)
}

// --- Scenario generator ----------------------------------------------

// scenario is a deterministic schedule script: every event's behaviour —
// what it appends to the log, what it schedules next, what it cancels —
// is a pure function of (seed, event id). Timestamps are drawn from a
// tiny grid so equal times are the norm, not the exception.
type scenario struct {
	seed    uint64
	initial int // events scheduled up front
	maxID   int // hard cap on total events (stops runaway growth)
}

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
			// Time grid: now, now+0.5, or now+1 — schedule-at-current-time
			// and ties both occur constantly.
			dt := float64(rng.Intn(3)) * 0.5
			handles[kidID] = s.schedule(s.now()+dt, func() { spawn(kidID) })
		}
	}
	rng := xrand.New(sc.seed)
	for i := 0; i < sc.initial; i++ {
		id := nextID
		nextID++
		at := float64(rng.Intn(5)) * 0.5
		handles[id] = s.schedule(at, func() { spawn(id) })
	}
	switch e := s.(type) {
	case engineSched:
		e.e.RunUntil(1e6)
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
// on equal timestamps, cancels, and schedule-at-current-time — on the
// reference model and on the engine. The logs must be identical.
func TestShardedMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		sc := scenario{seed: seed, initial: 8, maxID: 200}
		ref := sc.play(&refModel{})
		if len(ref) == 0 {
			t.Fatalf("seed %d: empty reference log", seed)
		}
		if got := sc.play(engineSched{New()}); !logsEqual(ref, got) {
			t.Fatalf("seed %d: log diverged from model\nref: %v\ngot: %v", seed, ref, got)
		}
	}
}

// --- Targeted adversarial cases --------------------------------------

// TestEqualTimestampsAcrossShards: events at one instant run in
// scheduling order whatever order their times were scheduled in, and an
// earlier time beats any scheduling order.
func TestEqualTimestampsAcrossShards(t *testing.T) {
	e := New()
	var got []int
	e.At(5, func() { got = append(got, 1) })
	e.At(6, func() { got = append(got, 6) })
	e.At(5, func() { got = append(got, 2) })
	e.At(4, func() { got = append(got, 4) })
	e.At(5, func() { got = append(got, 3) })
	e.Run()
	if want := []int{4, 1, 2, 3, 6}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestCancelFromOtherShard: a handler cancels an event scheduled later
// for the same instant. The victim is later in the total order, so the
// cancel must win.
func TestCancelFromOtherShard(t *testing.T) {
	e := New()
	ran := false
	var victim *Event
	e.At(7, func() { victim.Cancel() })
	victim = e.At(7, func() { ran = true })
	e.RunUntil(100)
	if ran {
		t.Fatal("cancelled same-time event ran")
	}
	if !victim.Cancelled() {
		t.Fatal("victim not reported cancelled")
	}
}

// TestScheduleAtCurrentTime: a handler scheduling at exactly Now() runs
// its child at the same timestamp, after every event already scheduled
// for that instant.
func TestScheduleAtCurrentTime(t *testing.T) {
	e := New()
	var got []string
	e.At(2, func() {
		got = append(got, "a")
		e.At(e.Now(), func() { got = append(got, "a0") })
	})
	e.At(2, func() { got = append(got, "b") })
	e.At(3, func() { got = append(got, "c") })
	e.RunUntil(10)
	if want := "[a b a0 c]"; fmt.Sprint(got) != want {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestShardEventCancelAfterExecutionInert is the regression test for the
// event-reuse hazard: a handle retained past execution must be inert —
// Cancel must not resurrect, suppress, or report anything.
func TestShardEventCancelAfterExecutionInert(t *testing.T) {
	e := New()
	runs := 0
	h := e.At(1, func() { runs++ })
	e.RunUntil(1)
	h.Cancel() // stale cancel, long after execution
	if h.Cancelled() {
		t.Fatal("executed event reports Cancelled after a stale Cancel")
	}
	// The heap slot is long recycled; new events must be unaffected.
	ran := false
	e.At(2, func() { ran = true })
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
	h = e.At(1, func() {
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

// TestShardedTickerCancel: a ticker cancelled by an event scheduled
// earlier for the very instant of its next occurrence does not fire that
// occurrence.
func TestShardedTickerCancel(t *testing.T) {
	e := New()
	var fires []Time
	tk := e.Every(1, 1, func() { fires = append(fires, e.Now()) })
	e.At(3, func() { tk.Cancel() })
	e.RunUntil(100)
	if fmt.Sprint(fires) != "[1 2]" {
		t.Fatalf("ticker fired at %v, want [1 2]", fires)
	}
	if !tk.Cancelled() {
		t.Fatal("ticker not reported cancelled")
	}
}

// TestShardedPendingExecuted sanity-checks the bookkeeping surface.
func TestShardedPendingExecuted(t *testing.T) {
	e := New()
	for i := 0; i < 9; i++ {
		e.At(float64(i), func() {})
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

// TestShardedPastSchedulingPanics: scheduling before Now panics from
// outside a handler too, and Now itself is still schedulable.
func TestShardedPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(5, func() {})
	e.Run()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("scheduling in the past did not panic")
			}
		}()
		e.At(1, func() {})
	}()
	ran := false
	e.At(5, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event at Now did not run")
	}
}

// FuzzShardMergeOrdering feeds arbitrary byte strings as schedule
// scripts: each byte pair (timeslot, op) schedules, nests, or cancels an
// event. The engine must replay the reference model byte for byte.
func FuzzShardMergeOrdering(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 0, 1, 7, 0, 2, 3, 0, 0, 3, 0, 1})
	f.Add([]byte{255, 255, 255, 0, 0, 0, 128, 64, 32})
	run := func(s testSched, script []byte) []string {
		var log []string
		var handles []canceler
		for i := 0; i+1 < len(script); i += 2 {
			at := float64(script[i]%8) / 2
			id := i
			switch script[i+1] % 3 {
			case 0: // plain event
				handles = append(handles, s.schedule(at, func() {
					log = append(log, fmt.Sprintf("p%d@%.1f", id, s.now()))
				}))
			case 1: // event that nests a child at the same instant
				handles = append(handles, s.schedule(at, func() {
					log = append(log, fmt.Sprintf("n%d@%.1f", id, s.now()))
					s.schedule(s.now(), func() {
						log = append(log, fmt.Sprintf("k%d@%.1f", id, s.now()))
					})
				}))
			case 2: // event that cancels an earlier handle
				handles = append(handles, s.schedule(at, func() {
					log = append(log, fmt.Sprintf("x%d@%.1f", id, s.now()))
					if len(handles) > 0 {
						handles[id/2%len(handles)].Cancel()
					}
				}))
			}
		}
		switch e := s.(type) {
		case engineSched:
			e.e.RunUntil(100)
			e.e.Run()
		case *refModel:
			e.run()
		}
		return log
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		ref := run(&refModel{}, script)
		if got := run(engineSched{New()}, script); !logsEqual(ref, got) {
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
			e.At(float64(rng.Intn(20))/4, func() {
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
