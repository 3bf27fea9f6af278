package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/netproto"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/sim"
)

// writeTrace runs a small churning simulation with telemetry enabled and
// writes the stream to a temp file, returning its path and the result.
func writeTrace(t *testing.T) (string, *sim.Result) {
	t.Helper()
	cfg := sim.DefaultConfig(31, sim.QSA, 600)
	cfg.RequestRate = 40
	cfg.Duration = 15
	cfg.ChurnRate = 12
	cfg.EnableRecovery = true
	var buf bytes.Buffer
	cfg.TelemetryOut = &buf
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TelemetryErr != nil {
		t.Fatal(res.TelemetryErr)
	}
	path := filepath.Join(t.TempDir(), "run.tel.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, res
}

func TestSummaryMatchesSimulatorStats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation; skipped under -short")
	}
	path, res := writeTrace(t)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// The summary must print every outcome with the exact count the
	// simulator recorded, and no row for an outcome it never saw.
	r := res.Requests
	if want := fmt.Sprintf(" %d requests,", r.Issued); !strings.Contains(text, want) {
		t.Fatalf("summary header lacks %q:\n%s", want, text)
	}
	for _, row := range []struct {
		label string
		n     uint64
	}{
		{"failed: " + obs.StageDiscovery, r.DiscoveryFailed},
		{"failed: " + obs.StageCompose, r.ComposeFailed},
		{"failed: " + obs.StageSelection, r.SelectionFailed},
		{"failed: " + obs.StageAdmission, r.AdmissionFailed},
		{"failed: " + obs.StageDeparture, r.DepartureFailed},
		{obs.OutcomeSuccess, r.Succeeded},
		{obs.OutcomeAdmitted, 0}, // Run drains all sessions before returning
		{obs.OutcomePending, 0},
	} {
		line := fmt.Sprintf("  %-20s %6d\n", row.label, row.n)
		if row.n == 0 {
			if strings.Contains(text, "  "+row.label+" ") {
				t.Errorf("summary prints a row for %q, which the simulator never counted:\n%s", row.label, text)
			}
		} else if !strings.Contains(text, line) {
			t.Errorf("summary lacks %q:\n%s", line, text)
		}
	}
	if r.DepartureFailed == 0 {
		t.Error("churn run produced no departure failures; the departure row is untested")
	}
	for _, row := range []string{"latency by stage:", "request", "discovery", "selection", "session"} {
		if !strings.Contains(text, row) {
			t.Fatalf("latency table missing %q in:\n%s", row, text)
		}
	}
}

func TestExplainRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation; skipped under -short")
	}
	path, _ := writeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-req", "1", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"request 1", "outcome: ", "compose", "hop 1 at ", "cand "} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain output lacks %q:\n%s", want, text)
		}
	}
	// Hop filtering: output restricted to the hop's candidate lines
	// (plus the outcome line), never the span tree.
	out.Reset()
	if err := run([]string{"-req", "1", "-hop", "1", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hop 1 at ") || strings.Contains(out.String(), "hop 2 at ") ||
		strings.Contains(out.String(), "compose") || strings.Contains(out.String(), "critical path") {
		t.Fatalf("-hop did not filter events:\n%s", out.String())
	}
}

func TestTraceExplainRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full simulation; skipped under -short")
	}
	path, _ := writeTrace(t)
	var out bytes.Buffer
	if err := run([]string{"-req", "1", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "request 1") || !strings.Contains(text, "trace ") {
		t.Fatalf("trace header missing:\n%s", text)
	}
	if !strings.Contains(text, "critical path: request") {
		t.Fatalf("critical path line missing:\n%s", text)
	}
	if err := run([]string{"-req", "99999999", path}, &out); err == nil {
		t.Fatal("unknown request accepted")
	}
}

// TestPrototypeStream runs the tool over an initiator's stream from a
// loopback overlay: three sessions admitted without monitoring read as
// admitted, three monitored ones whose only provider closed read as
// departures.
func TestPrototypeStream(t *testing.T) {
	for _, c := range []struct {
		monitor time.Duration
		row     string
	}{
		{0, "  admitted                  3\n"},
		{20 * time.Millisecond, "  failed: departure         3\n"},
	} {
		var buf bytes.Buffer
		begin := time.Now()
		tr := obs.NewTracer(&buf, func() float64 { return time.Since(begin).Seconds() })
		peers := make([]*netproto.Peer, 4)
		for i := range peers {
			cfg := netproto.Config{Listen: "127.0.0.1:0", CPU: 100, Memory: 100, RPCTimeout: 500 * time.Millisecond}
			if i == 3 {
				cfg.Tracer, cfg.MonitorInterval = tr, c.monitor
			}
			p, err := netproto.Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			peers[i] = p
			if i > 0 {
				if err := p.Join(peers[0].Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
		src := &service.Instance{ID: "source#0", Service: "source",
			Qin:  qos.MustVector(qos.Sym("format", "RAW"), qos.Range("rate", 0, 40)),
			Qout: qos.MustVector(qos.Sym("format", "MPEG"), qos.Range("rate", 20, 25)),
			R:    resource.Vec2(10, 10), OutKbps: 40}
		if err := peers[1].Provide(src); err != nil {
			t.Fatal(err)
		}
		var sids []string
		for i := 0; i < 3; i++ {
			plan, err := peers[3].Aggregate([]service.Name{"source"}, qos.MustVector(qos.Range("rate", 10, 1e9)), time.Hour)
			if err != nil {
				t.Fatal(err)
			}
			sids = append(sids, plan.SessionID)
		}
		if c.monitor > 0 {
			peers[1].Close()
			deadline := time.Now().Add(5 * time.Second)
			for _, sid := range sids {
				for st, _ := peers[3].SessionStatus(sid); st != netproto.StatusFailed; st, _ = peers[3].SessionStatus(sid) {
					if time.Now().After(deadline) {
						t.Fatalf("session %s still %s after its only provider closed", sid, st)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "peer.tel.jsonl")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{path}, &out); err != nil {
			t.Fatalf("monitor %v: %v\n%s", c.monitor, err, out.String())
		}
		if !strings.Contains(out.String(), c.row) {
			t.Errorf("monitor %v: summary lacks %q:\n%s", c.monitor, c.row, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing file argument accepted")
	}
	if err := run([]string{"does-not-exist.jsonl"}, &out); err == nil {
		t.Fatal("nonexistent file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Fatal("garbage trace accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-req", "9", empty}, &out); err == nil {
		t.Fatal("unknown request ID accepted")
	}
}

func TestCacheReport(t *testing.T) {
	cfg := sim.DefaultConfig(5, sim.QSA, 300)
	cfg.RequestRate = 20
	cfg.Duration = 4
	var tel bytes.Buffer
	cfg.TelemetryOut = &tel
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	telPath := filepath.Join(dir, "run.tel.jsonl")
	if err := os.WriteFile(telPath, tel.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	metPath := filepath.Join(dir, "run.metrics.json")
	if err := os.WriteFile(metPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-metrics", metPath, telPath}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "hot-path caches:") ||
		!strings.Contains(got, "discovery cache:") ||
		!strings.Contains(got, "feed memo:") {
		t.Fatalf("cache section missing from:\n%s", got)
	}
	if strings.Contains(got, "0 hits, 0 misses (n/a hit rate), 0 epoch bumps") {
		t.Fatalf("cache counters never moved:\n%s", got)
	}
	// A broken snapshot is an error, not a silent skip.
	badMet := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badMet, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-metrics", badMet, telPath}, &out); err == nil {
		t.Fatal("truncated metrics snapshot accepted")
	}
	if err := run([]string{"-metrics", filepath.Join(dir, "missing.json"), telPath}, &out); err == nil {
		t.Fatal("missing metrics snapshot accepted")
	}
}

func TestWireReport(t *testing.T) {
	// Wire counters as a UDP/binary peer would leave them (the counter
	// names are pinned by internal/netproto's telemetry tests); the
	// report must render per-RPC bytes, the per-message average, and
	// the datagram reliability counters.
	reg := obs.NewRegistry()
	reg.Counter("wire.bytes_sent.lookup").Add(4130)
	reg.Counter("wire.bytes_recv.lookup").Add(9020)
	reg.Counter("rpc.lookup.sent").Add(10)
	reg.Counter("discovery.lookup_failed").Add(4)
	reg.Counter("wire.bytes_sent.other").Add(77)
	reg.Counter("wire.frags_sent").Add(24)
	reg.Counter("wire.frags_recv").Add(21)
	reg.Counter("wire.retransmits").Add(3)
	reg.Counter("wire.dups_dropped").Add(2)
	reg.Counter("wire.crc_failures").Add(1)
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	metPath := filepath.Join(dir, "wire.metrics.json")
	if err := os.WriteFile(metPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	telPath := filepath.Join(dir, "empty.tel.jsonl")
	if err := os.WriteFile(telPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-metrics", metPath, telPath}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"wire efficiency:",
		"lookup", "4130", "9020", "413B", // 4130 bytes over 10 lookups
		"other", "77",
		"lookups failed:   4",
		"fragments:        24 sent, 21 received",
		"retransmits:      3",
		"dups dropped:     2",
		"crc failures:     1",
		"packet rejects:   0",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("wire section missing %q in:\n%s", want, got)
		}
	}

	// A TCP/JSON-era snapshot has no wire counters: the section must
	// not appear at all rather than render a wall of zeros.
	plain := obs.NewRegistry()
	plain.Counter("discovery.cache_hits").Add(5)
	snap, err = json.Marshal(plain.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-metrics", metPath, telPath}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "wire efficiency:") {
		t.Fatalf("wire section rendered for a snapshot with no wire counters:\n%s", out.String())
	}
}
