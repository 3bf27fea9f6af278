package qos

import "fmt"

// Level is the user's end-to-end QoS requirement. The paper's evaluation
// (§4.1) reduces the user requirement to a single parameter with three
// levels: high, average, and low.
type Level int

const (
	// Low is the least demanding level (e.g. 56 kbps audio-only stream).
	Low Level = iota
	// Average is the middle level (e.g. 500 kbps SD stream).
	Average
	// High is the most demanding level (e.g. Mbps-class HD stream).
	High
)

// Levels lists all levels in ascending order of demand.
var Levels = []Level{Low, Average, High}

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Average:
		return "average"
	case High:
		return "high"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Valid reports whether l is one of the three defined levels.
func (l Level) Valid() bool { return l >= Low && l <= High }

// ParseLevel converts a string produced by Level.String back to a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "low":
		return Low, nil
	case "average":
		return Average, nil
	case "high":
		return High, nil
	}
	return 0, fmt.Errorf("qos: unknown level %q", s)
}
