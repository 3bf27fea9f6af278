package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
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
	// The summary must name every non-zero failure stage with the exact
	// count the simulator recorded.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(rep.Total) != res.Requests.Issued {
		t.Fatalf("report total %d != issued %d", rep.Total, res.Requests.Issued)
	}
	if uint64(rep.Count(obs.OutcomeSuccess)) != res.Requests.Succeeded {
		t.Fatalf("success count mismatch")
	}
	if !strings.Contains(text, "requests") || !strings.Contains(text, "outcomes:") {
		t.Fatalf("summary output malformed:\n%s", text)
	}
	if res.Requests.DepartureFailed > 0 && !strings.Contains(text, "failed: departure") {
		t.Fatalf("departure failures not surfaced:\n%s", text)
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
	if !strings.Contains(text, "request 1") || !strings.Contains(text, "outcome: ") {
		t.Fatalf("explain output malformed:\n%s", text)
	}
	// Hop filtering: output restricted to the hop storyline (plus the
	// outcome line), never the compose/admit events.
	out.Reset()
	if err := run([]string{"-req", "1", "-hop", "1", path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "admitted session") {
		t.Fatalf("-hop did not filter events:\n%s", out.String())
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
