package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/load"
	"repro/internal/netproto"
	"repro/internal/obs"
)

// writeLoadReport runs the load collector directly (no sockets) and
// writes a qsaload-shaped JSON report.
func writeLoadReport(t *testing.T, name string, okLat []float64, shed uint64) string {
	t.Helper()
	fc := callerScript(okLat, shed)
	sched, err := load.NewConstant(100000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := load.NewRunner(load.Config{
		Schedule: sched, ScheduleName: "constant", RateRPS: 100,
		Mix:      load.Mix{{Name: "only", Weight: 1, Services: []string{"work"}, MinRate: 10}},
		Requests: len(okLat) + int(shed),
	}, fc)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Run()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

type scriptedCaller struct {
	outcomes chan *netproto.AggResult
}

func callerScript(okLat []float64, shed uint64) *scriptedCaller {
	c := &scriptedCaller{outcomes: make(chan *netproto.AggResult, len(okLat)+int(shed))}
	for range okLat {
		c.outcomes <- &netproto.AggResult{OK: true}
	}
	for i := uint64(0); i < shed; i++ {
		c.outcomes <- &netproto.AggResult{Shed: true}
	}
	return c
}

func (c *scriptedCaller) Aggregate(netproto.AggRequest) (*netproto.AggResult, error) {
	return <-c.outcomes, nil
}

func TestLoadModeMergesReports(t *testing.T) {
	a := writeLoadReport(t, "a.load.json", []float64{0.01, 0.02}, 1)
	b := writeLoadReport(t, "b.load.json", []float64{0.03}, 2)
	var out bytes.Buffer
	if err := run([]string{"-load", a, b}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"2 generator file(s)", "class", "TOTAL", "p999"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	// Merged totals: 3 ok + 3 shed across the two files.
	if !strings.Contains(text, "       6        3       3") {
		t.Fatalf("merged sent/ok/shed row missing:\n%s", text)
	}
}

func TestLoadModeWithMetrics(t *testing.T) {
	rep := writeLoadReport(t, "a.load.json", []float64{0.01}, 0)
	// Two per-peer snapshots whose serving counters must add.
	mkSnap := func(name string, admitted, shedFull uint64) string {
		reg := obs.NewRegistry()
		reg.Counter("serve.admitted").Add(admitted)
		reg.Counter("serve.shed.queue_full").Add(shedFull)
		reg.Latency("serve.latency_seconds.p1").Observe(0.05)
		data, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	s1 := mkSnap("p1.json", 10, 2)
	s2 := mkSnap("p2.json", 5, 1)
	var out bytes.Buffer
	if err := run([]string{"-load", "-metrics", s1 + "," + s2, rep}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "admitted 15, shed 3") {
		t.Fatalf("merged admission counters missing:\n%s", text)
	}
	if !strings.Contains(text, "queue_full") || !strings.Contains(text, "p1 ") {
		t.Fatalf("shed breakdown or per-class latency missing:\n%s", text)
	}
}

func TestLoadModeErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-load"}, &out); err == nil {
		t.Error("no report files accepted")
	}
	if err := run([]string{"-load", "/nonexistent.json"}, &out); err == nil {
		t.Error("missing report file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", bad}, &out); err == nil {
		t.Error("malformed report accepted")
	}
	good := writeLoadReport(t, "a.load.json", []float64{0.01}, 0)
	if err := run([]string{"-load", "-metrics", bad, good}, &out); err == nil {
		t.Error("malformed metrics accepted")
	}
	if err := run([]string{"-load", "-metrics", "/nonexistent.json", good}, &out); err == nil {
		t.Error("missing metrics file accepted")
	}
}
