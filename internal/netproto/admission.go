package netproto

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

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
	// the actual hint scales with queue depth (core.AdmitQueue).
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

// admitWaiter parks one queued request. ready is buffered so the
// completer (Release or an eviction) never blocks on a waiter that
// is concurrently timing out.
type admitWaiter struct {
	ready    chan admitVerdict
	enqueued time.Time
	deadline time.Duration // client latency budget; 0 = none
}

var waiterPool = sync.Pool{New: func() any {
	return &admitWaiter{ready: make(chan admitVerdict, 1)}
}}

// admission wraps the pure core.AdmitQueue policy with the waiting
// mechanics: a mutex, parked waiters keyed by the policy's Seq
// handles, and the peer's shutdown signal.
type admission struct {
	mu      sync.Mutex
	q       *core.AdmitQueue
	waiters map[uint64]*admitWaiter
	base    time.Duration // retry-after base
	done    <-chan struct{}
	depth   *obs.Gauge // serve.queue_depth; nil without telemetry
}

func newAdmission(cfg AdmitConfig, done <-chan struct{}, depth *obs.Gauge) *admission {
	return &admission{
		q:       core.NewAdmitQueue(cfg.Workers, cfg.MaxQueue),
		waiters: make(map[uint64]*admitWaiter, cfg.MaxQueue),
		base:    cfg.RetryAfter,
		done:    done,
		depth:   depth,
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
	d, item, evicted, hasEvict := a.q.Offer(priority, dtolerant)
	switch d {
	case core.AdmitRun:
		a.mu.Unlock()
		return admitVerdict{run: true}
	case core.AdmitShed:
		ra := a.retryAfterLocked()
		a.mu.Unlock()
		return admitVerdict{reason: shedQueueFull, retryAfter: ra}
	}
	// AdmitWait: park. Eviction of a lower-priority waiter happens
	// under the same lock, so its shed verdict is ordered before any
	// Release could pop it.
	if hasEvict {
		// lint:allow lockorder every waiter's ready channel is buffered (cap 1, one completer); this never blocks
		a.completeLocked(evicted.Seq, admitVerdict{reason: shedEvicted, retryAfter: a.retryAfterLocked()})
	}
	// Queued requests are the contended cold path; the pool recycles waiters.
	w := waiterPool.Get().(*admitWaiter)
	w.enqueued = time.Now()
	w.deadline = deadline
	a.waiters[item.Seq] = w
	a.depth.Set(int64(a.q.QueueLen()))
	a.mu.Unlock()

	select {
	case v := <-w.ready:
		waiterPool.Put(w)
		return v
	case <-a.done:
		// Shutdown: the waiter may still be completed concurrently;
		// leave it un-pooled rather than risk a double Put.
		a.mu.Lock()
		delete(a.waiters, item.Seq)
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
		next, ok := a.q.Release()
		if !ok {
			a.depth.Set(int64(a.q.QueueLen()))
			return
		}
		w := a.waiters[next.Seq]
		if w == nil {
			// Abandoned by shutdown; the slot is free again.
			continue
		}
		waited := time.Since(w.enqueued)
		if w.deadline > 0 && waited > w.deadline {
			// lint:allow lockorder ready is buffered (cap 1, one completer); this never blocks
			a.completeLocked(next.Seq, admitVerdict{reason: shedDeadline, retryAfter: a.retryAfterLocked()})
			continue
		}
		delete(a.waiters, next.Seq)
		// lint:allow lockorder ready is buffered (cap 1, one completer); this never blocks
		w.ready <- admitVerdict{run: true, waited: waited}
		a.depth.Set(int64(a.q.QueueLen()))
		return
	}
}

// completeLocked delivers a shed verdict to a parked waiter.
func (a *admission) completeLocked(seq uint64, v admitVerdict) {
	w := a.waiters[seq]
	if w == nil {
		return
	}
	delete(a.waiters, seq)
	w.ready <- v
}

func (a *admission) retryAfterLocked() time.Duration {
	return time.Duration(a.q.RetryAfter(a.base.Seconds()) * float64(time.Second))
}
