package compose

import (
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/service"
)

// maxUserMemo caps the user-requirement memo: feed keys are bounded by the
// (small) instance population squared, but user QoS vectors are caller
// supplied, so an adversarial or long-lived embedder could grow the map
// without bound. Past the cap, checks still evaluate — they just stop
// being remembered.
const maxUserMemo = 4096

// feedKey memoizes Instance.CanFeed by pointer identity: instances are
// immutable after construction (their Qin/Qout never change), so the pair
// of pointers fully determines the outcome.
type feedKey struct{ a, b *service.Instance }

// userKey memoizes the final-layer user-requirement check. The user QoS
// vector is keyed by its backing array (&v[0]) plus length — callers that
// reuse a shared per-level vector (catalog.UserQoS does) hit; callers that
// rebuild vectors simply miss and re-evaluate, never getting a wrong
// answer, because identical backing means identical contents.
type userKey struct {
	inst *service.Instance
	p0   *qos.Param
	n    int
}

// Memo caches QoS-compatibility outcomes across composition runs. The
// checks it covers — CanFeed edges between instances of adjacent layers
// and Satisfies checks against the user requirement — are pure functions
// of immutable values, so an outcome computed once holds for the lifetime
// of the instances. Sharing one Memo across every request drops QCS's
// compatibility work from O(K·V²) per request to O(K·V²) total.
//
// A nil *Memo is valid and simply evaluates every check. Memo is not safe
// for concurrent use (the aggregation pipeline is single-goroutine).
type Memo struct {
	feed map[feedKey]bool
	user map[userKey]bool

	// Obs counts hits and misses into a metrics registry when wired;
	// the zero value no-ops.
	Obs obs.MemoCounters
}

// NewMemo returns an empty compatibility memo.
func NewMemo() *Memo {
	return &Memo{
		feed: make(map[feedKey]bool),
		user: make(map[userKey]bool),
	}
}

// CanFeed reports whether a's output satisfies b's input, remembering the
// outcome. Nil-safe: a nil memo delegates to the instances directly.
func (m *Memo) CanFeed(a, b *service.Instance) bool {
	if m == nil {
		return a.CanFeed(b)
	}
	k := feedKey{a, b}
	if v, ok := m.feed[k]; ok {
		m.Obs.FeedHits.Inc()
		return v
	}
	m.Obs.FeedMisses.Inc()
	v := a.CanFeed(b)
	m.feed[k] = v
	return v
}

// SatisfiesUser reports whether inst's output satisfies the user's
// end-to-end QoS requirement, remembering the outcome when the vector's
// backing array is reusable. Nil-safe.
func (m *Memo) SatisfiesUser(inst *service.Instance, userQoS qos.Vector) bool {
	if m == nil || len(userQoS) == 0 {
		return qos.Satisfies(inst.Qout, userQoS)
	}
	k := userKey{inst: inst, p0: &userQoS[0], n: len(userQoS)}
	if v, ok := m.user[k]; ok {
		m.Obs.UserHits.Inc()
		return v
	}
	m.Obs.UserMisses.Inc()
	v := qos.Satisfies(inst.Qout, userQoS)
	if len(m.user) < maxUserMemo {
		m.user[k] = v
	}
	return v
}
