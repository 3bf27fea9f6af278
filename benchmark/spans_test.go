package main

import (
	"testing"
	"time"
)

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "core.finish", Start: 0, End: 100, Parent: -1},
		{Name: "probe.resolve", Start: 10, End: 40, Parent: 0},
		{Name: "probe.resolve", Start: 30, End: 60, Parent: 0},                  // overlaps its sibling: 10–60 is covered once
		{Name: "session.admit", Start: 70, End: 130, Parent: 0},                 // runs past its parent: clipped at 100
		{Name: "selection.select", Start: 62, End: 68, Parent: 0, Sizing: true}, // sizing: takes nothing from the parent
		{Name: "topology.churn", Start: 15, End: 20, Parent: 1},
	}
	self, count := selfTimes(spans)
	want := map[string]time.Duration{
		"core.finish":      100 - 50 - 30, // minus 10–60 and 70–100
		"probe.resolve":    (30 - 5) + 30,
		"session.admit":    60,
		"selection.select": 6,
		"topology.churn":   5,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
	}
	if count["probe.resolve"] != 2 || count["core.finish"] != 1 {
		t.Errorf("counts = %v", count)
	}

	layers := layerSelf(spans)
	if _, ok := layers["selection"]; ok {
		t.Error("a sizing span must not appear in the attributed layers")
	}
	if layers["core"] != 20 || layers["probe"] != 55 || layers["topology"] != 5 {
		t.Errorf("layers = %v", layers)
	}
}

func TestMergeSpansRebasesParents(t *testing.T) {
	a := []span{{Name: "a", Parent: -1}, {Name: "a.child", Parent: 0}}
	b := []span{{Name: "b", Parent: -1}, {Name: "b.child", Parent: 0}}
	m := mergeSpans(a, b)
	if len(m) != 4 || m[1].Parent != 0 || m[2].Parent != -1 || m[3].Parent != 2 {
		t.Errorf("merged parents = %d %d %d %d", m[0].Parent, m[1].Parent, m[2].Parent, m[3].Parent)
	}
}
