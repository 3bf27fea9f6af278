package core

// Admission control for the serving plane (DESIGN §4.3): a bounded,
// priority-aware request queue in front of the aggregation pipeline.
// The paper's admission tier (§3.2) decides whether a composed path's
// reservations fit; this queue decides, earlier, whether the peer
// should spend pipeline work on a request at all under sustained
// open-loop load — the load-shedding discipline distributed
// composition needs to avoid queueing collapse (Klein et al.).
//
// AdmitQueue is the pure policy: a deterministic state machine over
// (active workers, bounded wait queue) with no clocks, channels or
// locks, so the same offer/release sequence always yields the same
// decisions. internal/netproto wraps it with the waiting and
// telemetry, and is its only caller: the simulator's workload is
// closed-loop, as the paper's figures are, and queues nothing.

// AdmitDecision classifies the outcome of one Offer.
type AdmitDecision int

const (
	// AdmitRun means a worker slot was free: run immediately.
	AdmitRun AdmitDecision = iota
	// AdmitWait means the request was queued; the caller waits until a
	// Release pops it (or it is evicted by a better arrival).
	AdmitWait
	// AdmitShed means the request was refused: the queue is full and
	// every queued request is at least as important. The caller backs
	// off for RetryAfter.
	AdmitShed
)

// AdmitItem is one queued request as the policy sees it. Seq is the
// arrival number the queue assigned — the caller's handle for
// matching evictions and pops back to its waiters.
type AdmitItem struct {
	Priority  int
	DTolerant bool
	Seq       uint64
}

// shedBefore orders shed victims: a is shed before b when a is less
// important. Lower priority sheds first; within a priority class a
// disruption-tolerant flow sheds before a non-tolerant one (it can
// retry later by design, per the ServiceRequest model); within that,
// the younger arrival sheds first, preserving the work already
// invested in older waiters.
func shedBefore(a, b AdmitItem) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	if a.DTolerant != b.DTolerant {
		return a.DTolerant
	}
	return a.Seq > b.Seq
}

// AdmitQueue is the bounded priority admission queue. Not safe for
// concurrent use — the caller holds its own lock, as netproto does.
type AdmitQueue struct {
	workers  int
	maxQueue int
	active   int
	queue    []AdmitItem // arrival order; scans pick victims/winners
	seq      uint64
}

// NewAdmitQueue returns a queue with the given concurrency (workers
// ≥ 1) and wait-queue bound (maxQueue ≥ 0).
func NewAdmitQueue(workers, maxQueue int) *AdmitQueue {
	if workers < 1 {
		workers = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &AdmitQueue{
		workers:  workers,
		maxQueue: maxQueue,
		queue:    make([]AdmitItem, 0, maxQueue),
	}
}

// Active returns the number of occupied worker slots.
func (q *AdmitQueue) Active() int { return q.active }

// QueueLen returns the number of waiting requests.
func (q *AdmitQueue) QueueLen() int { return len(q.queue) }

// Offer submits one request. The returned decision applies to the
// offered request; when admitting it evicts a queued victim, evicted
// is that item and hasEvict is true — the caller must fail the
// victim's waiter with a shed. item carries the queue's Seq handle
// for AdmitWait decisions.
//
// The uncontended path (a free worker slot) is two integer compares
// and an increment — the zero-allocation fast path ci.sh gates on.
func (q *AdmitQueue) Offer(priority int, dtolerant bool) (d AdmitDecision, item AdmitItem, evicted AdmitItem, hasEvict bool) {
	if q.active < q.workers {
		q.active++
		return AdmitRun, AdmitItem{Priority: priority, DTolerant: dtolerant}, AdmitItem{}, false
	}
	q.seq++
	item = AdmitItem{Priority: priority, DTolerant: dtolerant, Seq: q.seq}
	if len(q.queue) < q.maxQueue {
		q.queue = append(q.queue, item)
		return AdmitWait, item, AdmitItem{}, false
	}
	// Queue full: shed the least important of (queue ∪ arrival).
	victim := -1
	for i := range q.queue {
		if victim < 0 || shedBefore(q.queue[i], q.queue[victim]) {
			victim = i
		}
	}
	if victim < 0 || shedBefore(item, q.queue[victim]) {
		// The arrival itself is the least important (or nothing can
		// queue at all): shed it.
		return AdmitShed, item, AdmitItem{}, false
	}
	evicted = q.queue[victim]
	copy(q.queue[victim:], q.queue[victim+1:])
	q.queue = q.queue[:len(q.queue)-1]
	q.queue = append(q.queue, item)
	return AdmitWait, item, evicted, true
}

// Release frees one worker slot. When waiters are queued, the most
// important one (inverse shed order: highest priority, non-tolerant
// before tolerant, oldest first) is popped and returned with ok=true
// — the slot passes directly to it. With an empty queue the slot is
// returned to the pool and ok is false.
//
// A caller that decides not to run the popped item (e.g. its deadline
// already expired while queued) must call Release again: the slot it
// was handed is free again.
func (q *AdmitQueue) Release() (next AdmitItem, ok bool) {
	if len(q.queue) == 0 {
		if q.active > 0 {
			q.active--
		}
		return AdmitItem{}, false
	}
	best := 0
	for i := 1; i < len(q.queue); i++ {
		if shedBefore(q.queue[best], q.queue[i]) {
			best = i
		}
	}
	next = q.queue[best]
	copy(q.queue[best:], q.queue[best+1:])
	q.queue = q.queue[:len(q.queue)-1]
	return next, true
}

// RetryAfter is the deterministic backoff hint for a shed request, in
// seconds, as a multiple of base: a fuller wait queue pushes clients
// further away. Pure in the queue state, so identical load states
// produce identical hints.
func (q *AdmitQueue) RetryAfter(base float64) float64 {
	return base * float64(1+len(q.queue))
}
