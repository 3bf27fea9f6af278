// Package eventsim implements a deterministic discrete-event simulation
// engine: a virtual clock plus a priority queue of timestamped events.
//
// The QSA evaluation (paper §4) is a closed-loop simulation over simulated
// minutes: request arrivals, session completions, peer churn and periodic
// probe refreshes are all events. The engine is single-threaded by design —
// determinism matters more than parallelism inside one run; the experiment
// harness parallelizes across independent runs instead.
//
// Events run in (time, lane, seq) order: equal timestamps break first by
// a caller-chosen lane, then by scheduling order. At, After and Every use
// lane 0, so a caller that never names a lane sees plain (time, seq) FIFO
// order.
//
// Time is a float64 in simulated minutes, matching the paper's units
// (request rates in req/min, churn in peers/min, durations in minutes).
package eventsim

import "container/heap"

// Time is a point in simulated time, in minutes.
type Time = float64

// Runner is the execution surface of an Engine. The simulator hands its
// engine out behind it (sim.Simulator.Runner), so a harness can drive and
// inspect a run without scheduling into it.
type Runner interface {
	Now() Time
	RunUntil(deadline Time)
	Run()
	Step() bool
	Executed() uint64
	Pending() int
}

// Lifecycle states of a scheduled event. The explicit state machine is
// what makes a stale Cancel provably inert: once an event has executed,
// its state is pinned to stateDone and Cancel refuses to touch it, even
// though its old heap slot has long been recycled by another event.
const (
	stateScheduled int8 = iota
	stateCancelled
	stateDone
)

// Event is a scheduled callback. Handlers run with the clock set to the
// event's time and may schedule further events.
type Event struct {
	at    Time
	lane  int    // first tie-breaker among equal timestamps
	seq   uint64 // second tie-breaker: FIFO within a lane
	fn    func()
	state int8
	idx   int // heap index, -1 when popped
}

// Cancel marks the event so its handler will not run. Cancelling an already
// executed or cancelled event is a no-op: the state machine only admits
// the scheduled→cancelled transition, so a stale handle kept past
// execution can never perturb the queue slot its event once occupied.
func (e *Event) Cancel() {
	if e != nil && e.state == stateScheduled {
		e.state = stateCancelled
	}
}

// Cancelled reports whether Cancel arrived before the handler ran.
func (e *Event) Cancelled() bool { return e != nil && e.state == stateCancelled }

// eventHeap orders events by (time, lane, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	// Exact timestamps: a tolerance would break the ordering's transitivity.
	if a.at != b.at {
		return a.at < b.at
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event scheduler. The zero value is ready to use with
// the clock at 0.
type Engine struct {
	now      Time
	seq      uint64
	queue    eventHeap
	executed uint64
}

// New returns an engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time in minutes.
func (e *Engine) Now() Time { return e.now }

// Executed returns how many event handlers have run.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns how many scheduled (possibly cancelled) events remain.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules fn to run at absolute time t on lane 0. Scheduling in the
// past (t < Now) panics: it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) *Event { return e.AtLane(0, t, fn) }

// AtLane schedules fn to run at absolute time t on the given lane. Among
// events at the same time, lower lanes run first (negative lanes before
// lane 0) and each lane keeps scheduling order. Scheduling in the past
// panics, as with At.
func (e *Engine) AtLane(lane int, t Time, fn func()) *Event {
	if t < e.now {
		// lint:allow panic-in-library scheduling into the past would silently reorder causality; no caller can recover meaningfully
		panic("eventsim: scheduling event in the past")
	}
	ev := &Event{at: t, lane: lane, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d minutes from now. Negative d panics.
func (e *Engine) After(d float64, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Every schedules fn to run now+first, then every period minutes, until the
// returned event is cancelled. fn runs before the next occurrence is
// scheduled, so fn may cancel the ticker via the returned handle.
func (e *Engine) Every(first, period float64, fn func()) *Ticker {
	t := &Ticker{engine: e, period: period, fn: fn}
	t.schedule(first)
	return t
}

// Ticker is a repeating event. Cancel stops future occurrences.
type Ticker struct {
	engine *Engine
	period float64
	fn     func()
	ev     *Event
	dead   bool
}

func (t *Ticker) schedule(d float64) {
	t.ev = t.engine.After(d, func() {
		if t.dead {
			return
		}
		t.fn()
		if !t.dead {
			t.schedule(t.period)
		}
	})
}

// Cancel stops the ticker.
func (t *Ticker) Cancel() {
	t.dead = true
	t.ev.Cancel()
}

// Cancelled reports whether the ticker has been stopped.
func (t *Ticker) Cancelled() bool { return t.dead }

// Schedule is At under the name the benchmark ledger (benchmark/) calls.
func (e *Engine) Schedule(t Time, fn func()) *Event { return e.At(t, fn) }

// ScheduleEvery is Every under the name the benchmark ledger calls.
func (e *Engine) ScheduleEvery(first, period float64, fn func()) *Ticker {
	return e.Every(first, period, fn)
}

// Step executes the single next event, if any, advancing the clock to its
// timestamp. It reports whether an event ran (cancelled events are skipped
// and do not count). The event transitions to executed *before* its
// handler runs, so even a Cancel issued from inside the handler itself is
// inert.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.state != stateScheduled {
			continue
		}
		ev.state = stateDone
		e.now = ev.at
		e.executed++
		ev.fn()
		return true
	}
	return false
}

// RunUntil executes events in timestamp order until the queue is empty or
// the next event is strictly after deadline; the clock is then set to
// deadline (never backwards).
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 {
		// Peek: skip cancelled events without advancing time.
		next := e.queue[0]
		if next.state != stateScheduled {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if deadline > e.now {
		e.now = deadline
	}
}

// Run executes events until the queue is drained.
func (e *Engine) Run() {
	for e.Step() {
	}
}
