//go:build !race

package netproto_test

// raceEnabled reports whether the race detector is compiled in; the
// latency bars skip under it (instrumentation slows every RPC).
const raceEnabled = false
