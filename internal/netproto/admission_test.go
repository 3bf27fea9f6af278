package netproto

import (
	"testing"
	"time"
)

// admitOffer is acquire's decision without the waiting: "run" on a free
// slot; otherwise a fresh waiter of the given class parks ("wait"),
// possibly evicting a parked one, or is shed itself ("shed").
func admitOffer(q *admitQueue, priority int, dtolerant bool) (d string, w, evicted *admitWaiter) {
	if q.tryRun() {
		return "run", nil, nil
	}
	w = &admitWaiter{priority: priority, dtolerant: dtolerant}
	queued, evicted := q.enqueue(w)
	if !queued {
		return "shed", w, nil
	}
	return "wait", w, evicted
}

// TestAdmitFastPath: free worker slots admit immediately, without
// touching the queue or the arrival counter.
func TestAdmitFastPath(t *testing.T) {
	q := newAdmitQueue(2, 4)
	for i := 0; i < 2; i++ {
		if d, _, evicted := admitOffer(&q, 0, false); d != "run" || evicted != nil {
			t.Fatalf("offer %d: %s evicted %v, want run", i, d, evicted)
		}
	}
	if q.Active() != 2 || q.QueueLen() != 0 || q.seq != 0 {
		t.Fatalf("active %d queue %d seq %d, want 2/0/0", q.Active(), q.QueueLen(), q.seq)
	}
}

// TestAdmitQueueAndShed: with workers busy, arrivals queue to the
// bound, then the least important of (queue ∪ arrival) sheds.
func TestAdmitQueueAndShed(t *testing.T) {
	q := newAdmitQueue(1, 2)
	admitOffer(&q, 0, false) // occupies the worker
	d, w1, _ := admitOffer(&q, 1, false)
	if d != "wait" {
		t.Fatalf("first wait: %s", d)
	}
	if d, _, _ = admitOffer(&q, 2, false); d != "wait" {
		t.Fatalf("second wait: %s", d)
	}
	// Queue full. A lower-priority arrival sheds itself.
	if d, _, evicted := admitOffer(&q, 0, false); d != "shed" || evicted != nil {
		t.Fatalf("low-priority arrival: %s evicted %v, want shed", d, evicted)
	}
	// A higher-priority arrival evicts the least important waiter (w1,
	// priority 1).
	d, _, evicted := admitOffer(&q, 3, false)
	if d != "wait" || evicted != w1 {
		t.Fatalf("high-priority arrival: %s evicted %+v, want wait evicting %+v", d, evicted, w1)
	}
	if q.QueueLen() != 2 {
		t.Fatalf("queue %d after eviction swap, want 2", q.QueueLen())
	}
}

// TestAdmitShedOrder pins the full shed ordering: priority, then
// disruption tolerance, then youth.
func TestAdmitShedOrder(t *testing.T) {
	cases := []struct {
		name string
		a, b admitWaiter
		want bool // a sheds before b
	}{
		{"lower priority first", admitWaiter{priority: 0, seq: 1}, admitWaiter{priority: 1, seq: 2}, true},
		{"higher priority later", admitWaiter{priority: 2, seq: 1}, admitWaiter{priority: 1, seq: 2}, false},
		{"tolerant before firm", admitWaiter{priority: 1, dtolerant: true, seq: 1}, admitWaiter{priority: 1, seq: 2}, true},
		{"firm after tolerant", admitWaiter{priority: 1, seq: 1}, admitWaiter{priority: 1, dtolerant: true, seq: 2}, false},
		{"younger first", admitWaiter{priority: 1, seq: 9}, admitWaiter{priority: 1, seq: 3}, true},
		{"older later", admitWaiter{priority: 1, seq: 3}, admitWaiter{priority: 1, seq: 9}, false},
	}
	for _, c := range cases {
		if got := shedBefore(&c.a, &c.b); got != c.want {
			t.Errorf("%s: shedBefore(%+v, %+v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

// TestAdmitReleaseOrder: pop hands the slot to waiters most-important
// first — the exact inverse of shed order.
func TestAdmitReleaseOrder(t *testing.T) {
	q := newAdmitQueue(1, 4)
	admitOffer(&q, 0, false) // worker busy
	_, loPri, _ := admitOffer(&q, 0, false)
	_, hiTol, _ := admitOffer(&q, 2, true)
	_, hiOld, _ := admitOffer(&q, 2, false)
	_, hiYng, _ := admitOffer(&q, 2, false)
	for i, want := range []*admitWaiter{hiOld, hiYng, hiTol, loPri} {
		next, ok := q.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty early", i)
		}
		if next != want {
			t.Fatalf("pop %d: seq %d, want %d", i, next.seq, want.seq)
		}
		// The popped waiter "runs": the slot transfers, active stays 1.
		if q.Active() != 1 {
			t.Fatalf("pop %d: active %d, want 1", i, q.Active())
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("empty queue still popped a waiter")
	}
	if q.Active() != 0 {
		t.Fatalf("final active %d, want 0", q.Active())
	}
}

// TestAdmitDeterministic: identical offer/release sequences make
// identical decisions — the property the retry-after hints and the
// chaos suite lean on.
func TestAdmitDeterministic(t *testing.T) {
	run := func() []string {
		q := newAdmitQueue(2, 3)
		var out []string
		offers := []struct {
			pri int
			dt  bool
		}{{0, false}, {1, true}, {2, false}, {0, false}, {3, false}, {1, false}, {0, true}}
		for i, o := range offers {
			d, _, _ := admitOffer(&q, o.pri, o.dt)
			out = append(out, d)
			if i%3 == 2 {
				q.pop()
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestAdmitRetryAfter: the backoff hint scales linearly with queue
// depth and is pure in the queue state.
func TestAdmitRetryAfter(t *testing.T) {
	const base = 100 * time.Millisecond
	q := newAdmitQueue(1, 3)
	if got := q.retryAfter(base); got != base {
		t.Fatalf("idle hint %v, want %v", got, base)
	}
	admitOffer(&q, 0, false)
	for i := 1; i <= 3; i++ {
		admitOffer(&q, 0, false)
		want := base * time.Duration(1+i)
		if got := q.retryAfter(base); got != want {
			t.Fatalf("depth %d: hint %v, want %v", i, got, want)
		}
		if again := q.retryAfter(base); again != want {
			t.Fatalf("depth %d: hint not pure (%v then %v)", i, want, again)
		}
	}
}

// TestAdmitClamps: degenerate constructor arguments clamp instead of
// producing a queue that can never run anything.
func TestAdmitClamps(t *testing.T) {
	q := newAdmitQueue(0, -5)
	if d, _, _ := admitOffer(&q, 0, false); d != "run" {
		t.Fatalf("clamped queue refused its first offer: %s", d)
	}
	// maxQueue clamped to 0: the next offer sheds immediately.
	if d, _, _ := admitOffer(&q, 5, false); d != "shed" {
		t.Fatalf("zero-length queue queued anyway: %s", d)
	}
}
