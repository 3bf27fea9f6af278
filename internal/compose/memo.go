package compose

import (
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/service"
)

// maxUserMemo caps the user-requirement memo: feed outcomes are bounded by
// the (small) instance population squared, but user QoS vectors are
// caller supplied, so an adversarial or long-lived embedder could grow the
// map without bound. Past the cap, checks still evaluate — they just stop
// being remembered.
const maxUserMemo = 4096

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
// Feed outcomes are keyed by pointer identity: instances are immutable
// after construction (their Qin/Qout never change), so the pair of
// pointers fully determines the outcome. Each instance gets a dense index
// on first sight, and the outcomes of the instances feeding b sit in row
// b, indexed by the feeder's: QCS looks each vertex's index up once per
// run, and its edges then read rows, not a hash.
//
// A nil *Memo is valid and simply evaluates every check. Memo is not safe
// for concurrent use (the aggregation pipeline is single-goroutine).
type Memo struct {
	ids  map[*service.Instance]int32 // dense index per instance seen
	feed [][]feedOutcome             // feed[b][a]: whether a feeds b
	user map[userKey]bool

	// Obs counts hits and misses into a metrics registry when wired;
	// the zero value no-ops.
	Obs obs.MemoCounters
}

// feedOutcome is one remembered CanFeed check; the zero value is none.
type feedOutcome uint8

const (
	feedUnknown feedOutcome = iota
	feedNo
	feedYes
)

// NewMemo returns an empty compatibility memo.
func NewMemo() *Memo {
	return &Memo{
		ids:  make(map[*service.Instance]int32),
		user: make(map[userKey]bool),
	}
}

// id returns inst's dense index, assigning the next one on first sight;
// −1 on a nil memo.
func (m *Memo) id(inst *service.Instance) int32 {
	if m == nil {
		return -1
	}
	i, ok := m.ids[inst]
	if !ok {
		i = int32(len(m.feed))
		m.ids[inst] = i
		m.feed = append(m.feed, nil)
	}
	return i
}

// CanFeed reports whether a's output satisfies b's input, remembering the
// outcome. Nil-safe: a nil memo delegates to the instances directly.
func (m *Memo) CanFeed(a, b *service.Instance) bool {
	return m.feeds(a, m.id(a), b, m.id(b))
}

// feeds is CanFeed for instances whose dense indexes (id) the caller
// already holds.
func (m *Memo) feeds(a *service.Instance, ia int32, b *service.Instance, ib int32) bool {
	if m == nil {
		return a.CanFeed(b)
	}
	row := m.feed[ib]
	if int(ia) < len(row) && row[ia] != feedUnknown {
		m.Obs.FeedHits.Inc()
		return row[ia] == feedYes
	}
	m.Obs.FeedMisses.Inc()
	if int(ia) >= len(row) {
		row = append(row, make([]feedOutcome, int(ia)+1-len(row))...)
		m.feed[ib] = row
	}
	v := a.CanFeed(b)
	row[ia] = feedNo
	if v {
		row[ia] = feedYes
	}
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
