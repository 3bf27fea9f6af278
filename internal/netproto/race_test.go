//go:build race

package netproto

const RaceEnabled = true
