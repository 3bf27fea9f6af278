package eventsim

import (
	"container/heap"
	"runtime"
	"sync"
)

// ShardedEngine partitions the event queue across N per-shard heaps
// ("lanes") and synchronizes them with a conservative virtual-time
// barrier. The design goal is determinism first, parallelism second:
//
//   - Commits — the observable event handlers — always execute one at a
//     time on the caller's goroutine, in the global total order
//     (at, logical, seq). `logical` is a caller-chosen logical shard
//     index and `seq` is a single engine-global schedule counter, so the
//     order is independent of the configured physical shard count: any
//     N, including N=1, replays the exact same commit sequence for the
//     same schedule calls. Epoch boundaries batch work but never reorder
//     it.
//   - Serial preps — optional stateful stages attached via AtPrepared —
//     run on the coordinator at epoch start, in merged order over the
//     epoch's claimed events. A serial prep may touch shared state
//     (charge lookup statistics, position a random stream): because the
//     claimed set and its merged order depend only on (at, logical, seq),
//     every shard/worker configuration runs the same serial preps at the
//     same logical point.
//   - Prepares — optional speculative stages attached via AtPrepared —
//     then run ahead of the barrier on per-lane worker goroutines. A
//     prepare must be pure speculation: it may only touch lane-local
//     scratch and caches whose contents are proven invisible to results.
//     The commit validates whatever the stages precomputed and redoes
//     the work inline when stale, so a prepare that ran against outdated
//     state changes nothing observable.
//
// Each epoch the coordinator pops the globally minimal pending event,
// extends a lookahead horizon past it, claims every event inside the
// horizon, runs the claimed serial preps in merged order, fans the
// speculative prepares out to the lane workers (or runs them inline when
// no workers are configured), waits on the barrier, and then commits the
// horizon's events in merged order. Events scheduled during commits that
// land inside the current horizon simply miss the epoch pre-pass: both
// their stages run inline at commit time.
type ShardedEngine struct {
	shards    int
	lookahead float64
	now       Time
	seq       uint64
	executed  uint64
	lanes     []shardHeap

	workers   []*laneWorker
	prepWG    sync.WaitGroup
	preparing bool // set for the prepare window; guards against scheduling from prepares
	batches   [][]*ShardEvent
	merge     []int // k-way merge cursors over batches, reused across epochs
	hasSpec   bool  // at least one event ever carried a prep stage
	closed    bool
}

// ShardedConfig configures a ShardedEngine.
type ShardedConfig struct {
	// Shards is the number of physical event lanes. Values < 1 mean 1.
	Shards int
	// Lookahead is the virtual-time window (simulated minutes) past the
	// globally minimal event that one epoch claims for speculative
	// preparation. Zero means DefaultLookahead. Lookahead only changes
	// how much work each barrier batch covers, never the commit order.
	Lookahead float64
	// Parallel is the number of prepare worker goroutines. Zero picks
	// min(Shards, GOMAXPROCS); 1 disables workers entirely and runs
	// every prepare on the coordinator during the epoch pre-pass — the
	// exact serial shadow of the parallel schedule, with identical stage
	// timing. Tests force Parallel = Shards so the race detector
	// exercises the barrier even on one CPU.
	Parallel int
}

// DefaultLookahead is the epoch window in simulated minutes. Request
// inter-arrivals are uniform within a minute, so a quarter minute keeps
// epochs small enough that speculation rarely outruns registry churn.
const DefaultLookahead = 0.25

// NewSharded returns a sharded engine with the clock at 0. Callers that
// enable parallel prepares (Parallel != 1 on a multicore box) must call
// Close when done so the lane workers terminate.
func NewSharded(cfg ShardedConfig) *ShardedEngine {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	la := cfg.Lookahead
	if la <= 0 {
		la = DefaultLookahead
	}
	e := &ShardedEngine{
		shards:    n,
		lookahead: la,
		lanes:     make([]shardHeap, n),
		batches:   make([][]*ShardEvent, n),
		merge:     make([]int, n),
	}
	w := cfg.Parallel
	if w == 0 {
		w = min(n, runtime.GOMAXPROCS(0))
	}
	if w > n {
		w = n
	}
	if w > 1 {
		e.workers = make([]*laneWorker, w)
		for i := range e.workers {
			lw := &laneWorker{ch: make(chan []*ShardEvent, n)}
			e.workers[i] = lw
			go e.runWorker(lw)
		}
	}
	return e
}

// laneWorker runs speculative prepares for the lanes assigned to it.
// Lanes map to workers by lane % len(workers), so each lane's prepares
// are always executed by the same single worker: lane-local scratch
// never sees two goroutines.
type laneWorker struct {
	ch chan []*ShardEvent
}

// runWorker drains prepare batches until Close closes the channel.
func (e *ShardedEngine) runWorker(w *laneWorker) {
	for batch := range w.ch {
		for _, ev := range batch {
			runPrepare(ev)
		}
		e.prepWG.Done()
	}
}

// runPrepare executes an event's speculative stage once. Safe to call
// for events without a prepare stage.
func runPrepare(ev *ShardEvent) {
	if ev.prepare != nil && !ev.prepared {
		ev.prepared = true
		ev.prepare()
	}
}

// runSerialPrep executes an event's serial pre-stage once. Safe to call
// for events without one.
func runSerialPrep(ev *ShardEvent) {
	if ev.serialPrep != nil && !ev.serialDone {
		ev.serialDone = true
		ev.serialPrep()
	}
}

// Close terminates the lane workers. It is required whenever parallel
// prepares are enabled and is a no-op otherwise (and on second call).
func (e *ShardedEngine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, w := range e.workers {
		close(w.ch)
	}
	e.workers = nil
}

// Shards returns the configured physical lane count.
func (e *ShardedEngine) Shards() int { return e.shards }

// ParallelWorkers returns how many prepare workers are running (0 in
// inline mode).
func (e *ShardedEngine) ParallelWorkers() int { return len(e.workers) }

// Now returns the current simulated time in minutes.
func (e *ShardedEngine) Now() Time { return e.now }

// Executed returns how many event handlers have committed.
func (e *ShardedEngine) Executed() uint64 { return e.executed }

// Pending returns how many scheduled (possibly cancelled) events remain
// across all lanes.
func (e *ShardedEngine) Pending() int {
	n := 0
	for i := range e.lanes {
		n += len(e.lanes[i])
	}
	return n
}

// ShardEvent is a scheduled callback in a sharded engine. It implements
// Handle with the same provably-inert-after-execution Cancel semantics
// as the single-threaded Event.
type ShardEvent struct {
	at         Time
	logical    int
	seq        uint64
	fn         func()
	serialPrep func()
	prepare    func()
	serialDone bool
	prepared   bool
	state      int8
	idx        int
}

// Cancel prevents a still-pending handler from running; cancelling an
// executed or already-cancelled event is a no-op. Cancel must be called
// from event handlers or between runs, never from a prepare stage.
func (ev *ShardEvent) Cancel() {
	if ev != nil && ev.state == stateScheduled {
		ev.state = stateCancelled
	}
}

// Cancelled reports whether Cancel arrived before the handler ran.
func (ev *ShardEvent) Cancelled() bool { return ev != nil && ev.state == stateCancelled }

// shardHeap orders events by the global key (at, logical, seq).
type shardHeap []*ShardEvent

func less(a, b *ShardEvent) bool {
	// Exact timestamps: a tolerance would break the ordering's transitivity.
	if a.at != b.at {
		return a.at < b.at
	}
	if a.logical != b.logical {
		return a.logical < b.logical
	}
	return a.seq < b.seq
}

func (h shardHeap) Len() int           { return len(h) }
func (h shardHeap) Less(i, j int) bool { return less(h[i], h[j]) }
func (h shardHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *shardHeap) Push(x any) {
	ev := x.(*ShardEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *shardHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// AtShard schedules fn at absolute time t on logical shard `logical`.
// The logical index is part of the deterministic total order and is
// mapped onto a physical lane by logical % Shards, so the same schedule
// replays identically at any physical shard count. Negative logical
// indices and past timestamps panic. Scheduling from a prepare stage
// panics: prepares are speculative and must not have observable effects.
func (e *ShardedEngine) AtShard(logical int, t Time, fn func()) *ShardEvent {
	return e.atShard(logical, t, nil, nil, fn)
}

// AtPrepared schedules an event with up to two pre-stages ahead of fn.
// Either stage may be nil. The engine guarantees each stage runs exactly
// once before fn, in order serialPrep → prepare → fn:
//
//   - serialPrep runs on the coordinator goroutine, either during the
//     epoch pre-pass in merged (at, logical, seq) order over the claimed
//     window, or inline immediately before fn when the event was never
//     claimed. It may touch shared state; its position in the total
//     order is identical for every shard and worker count.
//   - prepare runs after every claimed serialPrep of its epoch has
//     finished — on the lane's worker goroutine when workers are
//     configured, on the coordinator otherwise. It must confine itself
//     to lane-local scratch and semantics-invisible caches.
//
// fn is responsible for validating the prepared result and recomputing
// inline if it went stale between the pre-pass and the commit.
func (e *ShardedEngine) AtPrepared(logical int, t Time, serialPrep, prepare, fn func()) *ShardEvent {
	return e.atShard(logical, t, serialPrep, prepare, fn)
}

func (e *ShardedEngine) atShard(logical int, t Time, serialPrep, prepare, fn func()) *ShardEvent {
	if e.preparing {
		// lint:allow panic-in-library scheduling from a speculative prepare would be an unsynchronized observable effect; it is a programming error with no meaningful recovery
		panic("eventsim: scheduling from a prepare stage")
	}
	if logical < 0 {
		// lint:allow panic-in-library a negative logical shard cannot be mapped deterministically; no caller can recover meaningfully
		panic("eventsim: negative logical shard")
	}
	if t < e.now {
		// lint:allow panic-in-library scheduling into the past would silently reorder causality; no caller can recover meaningfully
		panic("eventsim: scheduling event in the past")
	}
	ev := &ShardEvent{at: t, logical: logical, seq: e.seq, fn: fn, serialPrep: serialPrep, prepare: prepare}
	e.seq++
	if serialPrep != nil || prepare != nil {
		e.hasSpec = true
	}
	heap.Push(&e.lanes[logical%e.shards], ev)
	return ev
}

// At schedules fn at absolute time t on logical shard 0.
func (e *ShardedEngine) At(t Time, fn func()) *ShardEvent { return e.AtShard(0, t, fn) }

// After schedules fn to run d minutes from now on logical shard 0.
func (e *ShardedEngine) After(d float64, fn func()) *ShardEvent {
	return e.AtShard(0, e.now+d, fn)
}

// AfterShard schedules fn to run d minutes from now on the given
// logical shard.
func (e *ShardedEngine) AfterShard(logical int, d float64, fn func()) *ShardEvent {
	return e.AtShard(logical, e.now+d, fn)
}

// Schedule adapts AtShard to the Scheduler interface.
func (e *ShardedEngine) Schedule(t Time, fn func()) Handle { return e.AtShard(0, t, fn) }

// ScheduleAfter adapts AfterShard to the Scheduler interface.
func (e *ShardedEngine) ScheduleAfter(d float64, fn func()) Handle {
	return e.AfterShard(0, d, fn)
}

// ScheduleEvery adapts Every to the Scheduler interface.
func (e *ShardedEngine) ScheduleEvery(first, period float64, fn func()) Handle {
	return e.Every(first, period, fn)
}

// Every schedules fn to run now+first, then every period minutes, on
// logical shard 0, until the returned ticker is cancelled. As with the
// single-threaded Ticker, fn runs before the next occurrence is
// scheduled, so fn may cancel the ticker via the returned handle.
func (e *ShardedEngine) Every(first, period float64, fn func()) *ShardTicker {
	t := &ShardTicker{engine: e, period: period, fn: fn}
	t.schedule(first)
	return t
}

// ShardTicker is a repeating event on a sharded engine.
type ShardTicker struct {
	engine *ShardedEngine
	period float64
	fn     func()
	ev     *ShardEvent
	dead   bool
}

func (t *ShardTicker) schedule(d float64) {
	t.ev = t.engine.AfterShard(0, d, func() {
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
func (t *ShardTicker) Cancel() {
	t.dead = true
	t.ev.Cancel()
}

// Cancelled reports whether the ticker has been stopped.
func (t *ShardTicker) Cancelled() bool { return t.dead }

// peekMin returns the globally minimal scheduled event without removing
// it, discarding cancelled lane tops along the way. Returns nil when
// every lane is empty.
func (e *ShardedEngine) peekMin() *ShardEvent {
	var best *ShardEvent
	for i := range e.lanes {
		lane := &e.lanes[i]
		for len(*lane) > 0 && (*lane)[0].state != stateScheduled {
			heap.Pop(lane)
		}
		if len(*lane) == 0 {
			continue
		}
		if best == nil || less((*lane)[0], best) {
			best = (*lane)[0]
		}
	}
	return best
}

// popMin removes and returns the globally minimal scheduled event, or
// nil when every lane is drained.
func (e *ShardedEngine) popMin() *ShardEvent {
	ev := e.peekMin()
	if ev == nil {
		return nil
	}
	return heap.Remove(&e.lanes[ev.logical%e.shards], ev.idx).(*ShardEvent)
}

// commit executes one event: any pre-stage the epoch pre-pass did not
// already run executes inline, then the event transitions to executed —
// pinning the state before the handler runs so even a self-Cancel is
// inert — the clock advances, and the handler runs.
func (e *ShardedEngine) commit(ev *ShardEvent) {
	runSerialPrep(ev)
	runPrepare(ev)
	ev.state = stateDone
	e.now = ev.at
	e.executed++
	ev.fn()
}

// Step executes the single next event in global order, if any, running
// its prepare inline. It reports whether an event ran. Step bypasses the
// epoch barrier entirely — it is the serial shadow of the parallel
// schedule and commits in the identical total order.
func (e *ShardedEngine) Step() bool {
	ev := e.popMin()
	if ev == nil {
		return false
	}
	e.commit(ev)
	return true
}

// RunUntil executes events in global (at, logical, seq) order until all
// lanes are drained or the next event is strictly after deadline; the
// clock is then set to deadline (never backwards). When parallel
// prepares are enabled this is the epoch loop: claim a lookahead window,
// fan prepares out to the lane workers, barrier, then commit the window
// serially in merged order.
func (e *ShardedEngine) RunUntil(deadline Time) {
	for {
		first := e.peekMin()
		if first == nil || first.at > deadline {
			break
		}
		horizon := first.at + e.lookahead
		if horizon > deadline {
			horizon = deadline
		}
		if e.hasSpec {
			e.prepareEpoch(horizon)
		}
		// Commit phase: pop merged-min while inside the horizon. Events
		// scheduled by commits that land inside the horizon run in their
		// correct merged position; they just miss the epoch pre-pass and
		// run their stages inline.
		for {
			next := e.peekMin()
			if next == nil || next.at > horizon {
				break
			}
			e.commit(e.popMin())
		}
	}
	if deadline > e.now {
		e.now = deadline
	}
}

// prepareEpoch claims every scheduled event with at <= horizon, runs
// their serial pre-stages in merged order, and then fans the speculative
// prepares out to the lane workers, returning after the barrier. Claimed
// events are popped in per-lane order and pushed straight back (the
// global seq keeps their position stable) before any worker starts, so
// the heaps are never touched concurrently.
func (e *ShardedEngine) prepareEpoch(horizon Time) {
	total := 0
	for i := range e.lanes {
		lane := &e.lanes[i]
		batch := e.batches[i][:0]
		for len(*lane) > 0 {
			top := (*lane)[0]
			if top.state != stateScheduled {
				heap.Pop(lane)
				continue
			}
			if top.at > horizon {
				break
			}
			batch = append(batch, heap.Pop(lane).(*ShardEvent))
		}
		for _, ev := range batch {
			heap.Push(lane, ev)
		}
		e.batches[i] = batch
		total += len(batch)
	}
	if total == 0 {
		return
	}
	e.preparing = true
	e.runSerialPreps()
	if len(e.workers) > 0 {
		dispatched := 0
		for _, batch := range e.batches {
			if hasPrepares(batch) {
				dispatched++
			}
		}
		if dispatched > 0 {
			e.prepWG.Add(dispatched)
			for i, batch := range e.batches {
				if hasPrepares(batch) {
					e.workers[i%len(e.workers)].ch <- batch
				}
			}
			e.prepWG.Wait()
		}
	} else {
		// Inline mode: the coordinator doubles as the lane worker. Lane
		// order (not merged order) is deliberate — prepares are pure per
		// event, so only the lane-local sequencing can matter, and that
		// matches what a single worker per lane would do.
		for _, batch := range e.batches {
			for _, ev := range batch {
				runPrepare(ev)
			}
		}
	}
	e.preparing = false
}

// runSerialPreps executes the claimed window's serial pre-stages in the
// global merged (at, logical, seq) order via a k-way merge over the
// per-lane batches, which heap extraction left individually sorted. The
// order — and thus every observable effect of the serial stages — is a
// pure function of the claimed set, independent of shard and worker
// counts.
func (e *ShardedEngine) runSerialPreps() {
	cur := e.merge
	for i := range cur {
		cur[i] = 0
	}
	for {
		var best *ShardEvent
		bi := -1
		for i, batch := range e.batches {
			if cur[i] < len(batch) {
				ev := batch[cur[i]]
				if best == nil || less(ev, best) {
					best, bi = ev, i
				}
			}
		}
		if best == nil {
			return
		}
		cur[bi]++
		runSerialPrep(best)
	}
}

// hasPrepares reports whether a claimed batch contains at least one
// event with an unexecuted prepare stage.
func hasPrepares(batch []*ShardEvent) bool {
	for _, ev := range batch {
		if ev.prepare != nil && !ev.prepared {
			return true
		}
	}
	return false
}

// Run executes events until every lane is drained.
func (e *ShardedEngine) Run() {
	for e.Step() {
	}
}
