//go:build race

package netproto_test

const raceEnabled = true
