package obs

// Counter bundles for the instrumented subsystems. Each bundle is a
// value struct of *Counter handles: the zero value is all-nil, which
// no-ops.
//
// A bundle is owned by the one subsystem that increments it, and it is
// that subsystem's only count of those events: probe.Manager,
// session.Manager, selection.Selector and registry.Registry read their
// Stats or Counters off their bundle, whose constructors give it
// private counters, and a caller that wants the numbers in a registry
// swaps in a wired bundle before the first event. The compose bundles
// and the prototype's instruments (netproto) are write-only: their zero
// value means nobody is counting.

// ComposeCounters tracks QCS composition work (graph size and Dijkstra
// effort).
type ComposeCounters struct {
	Runs        *Counter // QCS invocations
	Vertices    *Counter // candidate instances across all layers
	Edges       *Counter // QoS-feasible edges examined (seed edges included)
	Relaxations *Counter // Dijkstra distance improvements
	NoPath      *Counter // runs that found no QoS-consistent path
}

// NewComposeCounters wires the bundle into reg.
func NewComposeCounters(reg *Registry) ComposeCounters {
	return ComposeCounters{
		Runs:        reg.Counter("compose.runs"),
		Vertices:    reg.Counter("compose.vertices"),
		Edges:       reg.Counter("compose.edges"),
		Relaxations: reg.Counter("compose.relaxations"),
		NoPath:      reg.Counter("compose.nopath"),
	}
}

// SelectionCounters tracks hop-by-hop peer-selection work and outcomes.
type SelectionCounters struct {
	Steps          *Counter // selection steps executed
	Informed       *Counter // steps decided by the Φ metric
	Fallbacks      *Counter // steps decided by the random fallback
	Failures       *Counter // steps with no selectable candidate
	UptimeFiltered *Counter // candidates demoted for uptime < session duration
	Infeasible     *Counter // candidates filtered by resource/bandwidth feasibility
	NoInfo         *Counter // candidates with no fresh performance information
}

// NewSelectionCounters wires the bundle into reg.
func NewSelectionCounters(reg *Registry) SelectionCounters {
	return SelectionCounters{
		Steps:          reg.Counter("select.steps"),
		Informed:       reg.Counter("select.informed"),
		Fallbacks:      reg.Counter("select.fallbacks"),
		Failures:       reg.Counter("select.failures"),
		UptimeFiltered: reg.Counter("select.uptime_filtered"),
		Infeasible:     reg.Counter("select.infeasible"),
		NoInfo:         reg.Counter("select.no_info"),
	}
}

// DiscoveryCounters tracks the registry's epoch-cached lookup plane:
// real DHT lookups, cache hits/misses, and mutation-epoch bumps.
type DiscoveryCounters struct {
	Lookups     *Counter // lookups routed through the DHT (cache misses included)
	CacheHits   *Counter // lookups served from the epoch cache
	CacheMisses *Counter // lookups that had to fall through to the DHT
	EpochBumps  *Counter // registry mutations that invalidated the cache
}

// NewDiscoveryCounters wires the bundle into reg.
func NewDiscoveryCounters(reg *Registry) DiscoveryCounters {
	return DiscoveryCounters{
		Lookups:     reg.Counter("discovery.lookups"),
		CacheHits:   reg.Counter("discovery.cache_hits"),
		CacheMisses: reg.Counter("discovery.cache_misses"),
		EpochBumps:  reg.Counter("discovery.epoch_bumps"),
	}
}

// MemoCounters tracks the memoized QoS-compatibility graph (compose.Memo):
// hit/miss counts for inter-instance CanFeed edges and for final-layer
// user-requirement checks.
type MemoCounters struct {
	FeedHits   *Counter
	FeedMisses *Counter
	UserHits   *Counter
	UserMisses *Counter
}

// NewMemoCounters wires the bundle into reg.
func NewMemoCounters(reg *Registry) MemoCounters {
	return MemoCounters{
		FeedHits:   reg.Counter("compose.memo_feed_hits"),
		FeedMisses: reg.Counter("compose.memo_feed_misses"),
		UserHits:   reg.Counter("compose.memo_user_hits"),
		UserMisses: reg.Counter("compose.memo_user_misses"),
	}
}

// ProbeCounters counts probing activity; probe.Manager.Stats reads it.
type ProbeCounters struct {
	Probes    *Counter
	CacheHits *Counter
	Evictions *Counter
	Rejected  *Counter
}

// NewProbeCounters wires the bundle into reg.
func NewProbeCounters(reg *Registry) ProbeCounters {
	return ProbeCounters{
		Probes:    reg.Counter("probe.probes"),
		CacheHits: reg.Counter("probe.cache_hits"),
		Evictions: reg.Counter("probe.evictions"),
		Rejected:  reg.Counter("probe.rejected"),
	}
}

// SessionCounters counts session outcomes; session.Manager.Counters
// reads it.
type SessionCounters struct {
	Admitted   *Counter
	Rejected   *Counter
	Completed  *Counter
	Failed     *Counter
	Recoveries *Counter
}

// NewSessionCounters wires the bundle into reg.
func NewSessionCounters(reg *Registry) SessionCounters {
	return SessionCounters{
		Admitted:   reg.Counter("session.admitted"),
		Rejected:   reg.Counter("session.rejected"),
		Completed:  reg.Counter("session.completed"),
		Failed:     reg.Counter("session.failed"),
		Recoveries: reg.Counter("session.recoveries"),
	}
}
