//go:build !race

package netproto

// RaceEnabled reports whether the race detector is compiled in; the
// latency bars and the pooled-reader allocation gate skip under it
// (instrumentation slows every RPC, and a sync.Pool drops items at
// random). Exported so the external test package sees it too.
const RaceEnabled = false
