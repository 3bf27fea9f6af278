//go:build !race

package wire

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip pooled paths under it (a sync.Pool drops items
// at random there).
const raceEnabled = false
