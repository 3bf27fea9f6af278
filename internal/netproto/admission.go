package netproto

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Admission control for the serving plane (DESIGN §4.3): a bounded,
// priority-aware queue in front of the aggregation pipeline. The
// paper's admission tier (§3.2) decides whether a composed path's
// reservations fit (core's Grid.Admit); this queue decides, earlier,
// whether the peer should spend pipeline work on a request at all
// under sustained open-loop load — the load-shedding discipline
// distributed composition needs to avoid queueing collapse (Klein et
// al.). The simulator's workload is closed-loop, as the paper's figures
// are, and queues nothing.

// AdmitConfig bounds the serving peer's concurrent aggregation work
// (DESIGN §4.3). Zero Workers disables admission control entirely —
// the default, so closed-loop tests and the simulator-faithful paths
// are untouched.
type AdmitConfig struct {
	// Workers is the number of aggregations served concurrently.
	// 0 disables admission control.
	Workers int
	// MaxQueue bounds the requests waiting for a worker slot; beyond
	// it, the least important of (queue ∪ arrival) is shed with a
	// retry-after hint. Default 4× Workers.
	MaxQueue int
	// RetryAfter is the base backoff hint sent with a shed response;
	// the actual hint scales with queue depth, base × (1 + queued).
	// Default 100 ms.
	RetryAfter time.Duration
}

func (a *AdmitConfig) fillDefaults() {
	if a.Workers <= 0 {
		return // disabled
	}
	if a.MaxQueue == 0 {
		a.MaxQueue = 4 * a.Workers
	}
	if a.RetryAfter == 0 {
		a.RetryAfter = 100 * time.Millisecond
	}
}

// admitVerdict is the outcome of one acquire.
type admitVerdict struct {
	run        bool
	reason     string        // shed reason when !run
	retryAfter time.Duration // backoff hint when !run
	waited     time.Duration // queue time when run after waiting
}

// admitWaiter is one request parked in the queue. ready is buffered
// (cap 1, one completer) so a release or an eviction never blocks on a
// waiter that is concurrently giving up.
type admitWaiter struct {
	priority  int
	dtolerant bool
	seq       uint64 // arrival number: the age tie-break
	enqueued  time.Time
	deadline  time.Duration // client latency budget; 0 = none
	ready     chan admitVerdict
}

var waiterPool = sync.Pool{New: func() any {
	return &admitWaiter{ready: make(chan admitVerdict, 1)}
}}

// shedBefore orders shed victims: a is shed before b when a is less
// important. Lower priority sheds first; within a priority class a
// disruption-tolerant flow sheds before a non-tolerant one (it can
// retry later by design, per the ServiceRequest model); within that,
// the younger arrival sheds first, preserving the work already
// invested in older waiters.
func shedBefore(a, b *admitWaiter) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	if a.dtolerant != b.dtolerant {
		return a.dtolerant
	}
	return a.seq > b.seq
}

// admitQueue is the policy state: occupied worker slots and the
// bounded wait queue in arrival order. It reads no clock and touches
// no channel, so the same sequence of calls always makes the same
// decisions; admission.mu guards it.
type admitQueue struct {
	workers  int
	maxQueue int
	active   int
	waiting  []*admitWaiter
	seq      uint64
}

// newAdmitQueue returns a queue with the given concurrency (clamped to
// ≥ 1) and wait-queue bound (clamped to ≥ 0).
func newAdmitQueue(workers, maxQueue int) admitQueue {
	return admitQueue{
		workers:  max(workers, 1),
		maxQueue: max(maxQueue, 0),
		waiting:  make([]*admitWaiter, 0, max(maxQueue, 0)),
	}
}

// Active returns the number of occupied worker slots.
func (q *admitQueue) Active() int { return q.active }

// QueueLen returns the number of parked waiters.
func (q *admitQueue) QueueLen() int { return len(q.waiting) }

// tryRun claims a free worker slot: two integer compares and an
// increment, the zero-allocation fast path.
func (q *admitQueue) tryRun() bool {
	if q.active < q.workers {
		q.active++
		return true
	}
	return false
}

// enqueue numbers w and parks it. On a full queue the least important
// of (queue ∪ w) is shed: when that is w, queued is false and nothing
// changes; otherwise the victim leaves the queue and is returned, and
// the caller must fail it with a shed.
func (q *admitQueue) enqueue(w *admitWaiter) (queued bool, evicted *admitWaiter) {
	q.seq++
	w.seq = q.seq
	if len(q.waiting) < q.maxQueue {
		q.waiting = append(q.waiting, w)
		return true, nil
	}
	victim := -1
	for i, v := range q.waiting {
		if victim < 0 || shedBefore(v, q.waiting[victim]) {
			victim = i
		}
	}
	if victim < 0 || shedBefore(w, q.waiting[victim]) {
		return false, nil // w is the least important (or nothing can queue)
	}
	evicted = q.waiting[victim]
	q.waiting = append(q.waiting[:victim], q.waiting[victim+1:]...)
	q.waiting = append(q.waiting, w)
	return true, evicted
}

// pop frees one worker slot. With waiters parked, the most important
// one (inverse shed order: highest priority, non-tolerant before
// tolerant, oldest first) leaves the queue and is returned: the slot
// passes directly to it. A caller that does not run the popped waiter
// must pop again, since the slot it was handed is free once more.
func (q *admitQueue) pop() (*admitWaiter, bool) {
	if len(q.waiting) == 0 {
		if q.active > 0 {
			q.active--
		}
		return nil, false
	}
	best := 0
	for i := 1; i < len(q.waiting); i++ {
		if shedBefore(q.waiting[best], q.waiting[i]) {
			best = i
		}
	}
	w := q.waiting[best]
	q.waiting = append(q.waiting[:best], q.waiting[best+1:]...)
	return w, true
}

// remove takes w out of the queue if it is still parked there.
func (q *admitQueue) remove(w *admitWaiter) {
	for i, v := range q.waiting {
		if v == w {
			q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
			return
		}
	}
}

// retryAfter is the deterministic backoff hint for a shed request,
// base × (1 + queued): a fuller queue pushes clients further away, and
// identical queue states give identical hints.
func (q *admitQueue) retryAfter(base time.Duration) time.Duration {
	return time.Duration(base.Seconds() * float64(1+len(q.waiting)) * float64(time.Second))
}

// admission adds the waiting to the queue: its lock, the retry-after
// base and the peer's shutdown signal.
type admission struct {
	mu    sync.Mutex
	q     admitQueue
	base  time.Duration // retry-after base
	done  <-chan struct{}
	depth *obs.Gauge // serve.queue_depth; nil without telemetry
}

func newAdmission(cfg AdmitConfig, done <-chan struct{}, depth *obs.Gauge) *admission {
	return &admission{
		q:     newAdmitQueue(cfg.Workers, cfg.MaxQueue),
		base:  cfg.RetryAfter,
		done:  done,
		depth: depth,
	}
}

// Shed reasons (wire error strings and telemetry counter suffixes).
const (
	shedQueueFull = "queue_full"
	shedEvicted   = "evicted"
	shedDeadline  = "deadline"
	shedShutdown  = "shutdown"
)

// acquire claims a worker slot for a request of the given priority
// class, parking until one frees when the queue has room. The
// uncontended path — a free slot — takes the lock, bumps a counter
// and returns; it allocates nothing (ci.sh gates this).
func (a *admission) acquire(priority int, dtolerant bool, deadline time.Duration) admitVerdict {
	a.mu.Lock()
	if a.q.tryRun() {
		a.mu.Unlock()
		return admitVerdict{run: true}
	}
	// Queued requests are the contended cold path; the pool recycles waiters.
	w := waiterPool.Get().(*admitWaiter)
	w.priority, w.dtolerant, w.enqueued, w.deadline = priority, dtolerant, time.Now(), deadline
	queued, evicted := a.q.enqueue(w)
	if !queued {
		ra := a.q.retryAfter(a.base)
		a.mu.Unlock()
		waiterPool.Put(w)
		return admitVerdict{reason: shedQueueFull, retryAfter: ra}
	}
	// The victim's shed verdict is delivered under the same lock, so it
	// is ordered before any release could pop it.
	if evicted != nil {
		// lint:allow lockorder every waiter's ready channel is buffered (cap 1, one completer); this never blocks
		evicted.ready <- admitVerdict{reason: shedEvicted, retryAfter: a.q.retryAfter(a.base)}
	}
	a.depth.Set(int64(a.q.QueueLen()))
	a.mu.Unlock()

	select {
	case v := <-w.ready:
		waiterPool.Put(w)
		return v
	case <-a.done:
		// Shutdown: the waiter leaves the queue. One completed
		// concurrently holds a verdict, so it is not pooled again.
		a.mu.Lock()
		a.q.remove(w)
		a.depth.Set(int64(a.q.QueueLen()))
		a.mu.Unlock()
		return admitVerdict{reason: shedShutdown, retryAfter: a.base}
	}
}

// release frees the caller's worker slot, handing it to the most
// important queued waiter. Waiters whose latency budget expired while
// queued are shed on dequeue — spending a slot on a request the
// client has already given up on only deepens an overload.
func (a *admission) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for {
		w, ok := a.q.pop()
		if !ok {
			a.depth.Set(int64(a.q.QueueLen()))
			return
		}
		v := admitVerdict{run: true, waited: time.Since(w.enqueued)}
		if w.deadline > 0 && v.waited > w.deadline {
			v = admitVerdict{reason: shedDeadline, retryAfter: a.q.retryAfter(a.base)}
		}
		// lint:allow lockorder ready is buffered (cap 1, one completer); this never blocks
		w.ready <- v
		if v.run {
			a.depth.Set(int64(a.q.QueueLen()))
			return
		}
	}
}
