package obs

import (
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// brokenWriter is a ResponseWriter whose client hung up: every write
// fails after the first n bytes.
type brokenWriter struct {
	*httptest.ResponseRecorder
	budget int
	writes int
}

func (w *brokenWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.budget <= 0 {
		return 0, errors.New("client went away")
	}
	n := len(p)
	if n > w.budget {
		n = w.budget
	}
	w.budget -= n
	return w.ResponseRecorder.Write(p[:n])
}

// TestHandlerClientGone: a write error mid-response (the client closed
// the connection) must not panic or wedge either endpoint — the error
// is the client's problem, and the next request gets a full snapshot.
func TestHandlerClientGone(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests.total").Add(7)
	r.Latency("rpc.lat").Observe(0.25)
	h := Handler(r)

	for _, path := range []string{"/metrics", "/vars"} {
		for _, budget := range []int{0, 5} {
			w := &brokenWriter{ResponseRecorder: httptest.NewRecorder(), budget: budget}
			h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
			if w.writes == 0 {
				t.Fatalf("%s with budget %d: handler never wrote", path, budget)
			}
		}
		// The sink failing for one client must not poison the registry.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 || rec.Body.Len() == 0 {
			t.Fatalf("%s after broken client: %d %q", path, rec.Code, rec.Body.String())
		}
	}
}

// TestSnapshotObserveHammer races Snapshot (and quantile reads of its
// result) against concurrent writers on every instrument type. Run
// under -race in CI, this is the memory-model proof that scraping a
// live registry needs no stop-the-world: snapshots are internally
// consistent enough to query, and no observation is ever lost once the
// writers drain.
func TestSnapshotObserveHammer(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 8, 2000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hammer.count")
			l := r.Latency("hammer.lat")
			g := r.Gauge("hammer.gauge")
			for j := 0; j < perWriter; j++ {
				c.Inc()
				g.Add(1)
				l.Observe(float64(j%100) / 1000)
			}
		}()
	}
	// Scrape continuously while the writers run.
	snaps := 0
	for !stop.Load() {
		snap := r.Snapshot()
		snaps++
		for _, lv := range snap.Latencies {
			// A live snapshot is not atomic across fields (Count loads
			// before the buckets), so only shape is asserted here; the
			// exact accounting happens at quiescence below.
			if q := lv.Quantile(0.99); q < 0 {
				t.Fatalf("negative p99 %g in live snapshot", q)
			}
		}
		if snaps == 1 {
			go func() { wg.Wait(); stop.Store(true) }()
		}
	}
	// Quiescent: the final snapshot holds every observation.
	final := r.Latency("hammer.lat").SnapshotValue("hammer.lat")
	if final.Count != writers*perWriter {
		t.Fatalf("final latency count %d, want %d", final.Count, writers*perWriter)
	}
	if got := r.Counter("hammer.count").Value(); got != writers*perWriter {
		t.Fatalf("final counter %d, want %d", got, writers*perWriter)
	}
	if snaps < 2 {
		t.Fatalf("hammer took only %d snapshots", snaps)
	}
}
