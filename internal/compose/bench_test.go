package compose

import (
	"fmt"
	"testing"

	"repro/internal/service"
)

// benchLayers builds a dense 4-hop, 8-wide layered graph where every
// instance of layer k can feed every instance of layer k+1 — the
// worst-case edge count for the QCS Dijkstra pass.
func benchLayers() [][]*service.Instance {
	const hops, width = 4, 8
	fmts := []string{"F0", "F1", "F2", "F3", "A"}
	layers := make([][]*service.Instance, hops)
	for k := 0; k < hops; k++ {
		layers[k] = make([]*service.Instance, width)
		for i := 0; i < width; i++ {
			layers[k][i] = inst(fmt.Sprintf("l%d#%d", k, i),
				fmts[k], fmts[k+1], float64(1+(k+i)%5), 1)
		}
	}
	return layers
}

// BenchmarkQCS measures the memoized Dijkstra composition in steady
// state: the memo and scratch are warm, so per-call work is the graph
// walk itself plus the Path that escapes.
func BenchmarkQCS(b *testing.B) {
	layers := benchLayers()
	cfg := Config{
		Weights: []float64{1.0 / 3, 1.0 / 3, 1.0 / 3},
		Memo:    NewMemo(),
		Scratch: NewScratch(),
	}
	if _, err := QCS(layers, userA, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := QCS(layers, userA, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQCSSteadyStateAllocs pins QCS's allocation budget in steady state
// at the count measured when it was set, so one added allocation fails:
// with the memo and scratch warm, the only allocations are the composed
// instance slice and the Path record that escape to the caller.
func TestQCSSteadyStateAllocs(t *testing.T) {
	layers := benchLayers()
	cfg := Config{
		Weights: []float64{1.0 / 3, 1.0 / 3, 1.0 / 3},
		Memo:    NewMemo(),
		Scratch: NewScratch(),
	}
	const budget = 2
	avg := testing.AllocsPerRun(200, func() {
		if _, err := QCS(layers, userA, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("steady-state QCS allocates %.1f/op, budget %d", avg, budget)
	}
}
