//go:build !race

package chord

// raceEnabled reports whether the race detector is compiled in; the
// allocation gate skips under it (instrumentation inflates allocation
// counts).
const raceEnabled = false
