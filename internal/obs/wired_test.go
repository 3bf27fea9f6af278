package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounterBundlesRegisterNames(t *testing.T) {
	r := NewRegistry()
	NewComposeCounters(r).Runs.Inc()
	NewSelectionCounters(r).Steps.Inc()
	NewProbeCounters(r).Probes.Inc()
	NewSessionCounters(r).Admitted.Inc()
	want := []string{
		"compose.runs", "compose.vertices", "compose.edges", "compose.relaxations", "compose.nopath",
		"select.steps", "select.informed", "select.fallbacks", "select.failures",
		"select.uptime_filtered", "select.infeasible", "select.no_info",
		"probe.probes", "probe.cache_hits", "probe.evictions", "probe.rejected",
		"session.admitted", "session.rejected", "session.completed", "session.failed", "session.recoveries",
	}
	snap := r.Snapshot()
	names := make(map[string]uint64, len(snap.Counters))
	for _, c := range snap.Counters {
		names[c.Name] = c.Value
	}
	for _, n := range want {
		if _, ok := names[n]; !ok {
			t.Errorf("counter %q not registered", n)
		}
	}
	if names["compose.runs"] != 1 || names["select.steps"] != 1 ||
		names["probe.probes"] != 1 || names["session.admitted"] != 1 {
		t.Errorf("bundle counters not wired to the registry: %v", names)
	}
	// The zero-value bundles must be usable no-ops.
	var cc ComposeCounters
	cc.Runs.Inc()
	cc.Vertices.Add(3)
	var sc SelectionCounters
	sc.Fallbacks.Inc()
	var pc ProbeCounters
	pc.CacheHits.Inc()
	var xc SessionCounters
	xc.Rejected.Inc()
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests.total").Add(7)
	r.Gauge("sessions.active").Set(2)
	r.Latency("rpc.latency_seconds").Observe(0.02)
	h := Handler(r)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "counter requests.total 7") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if !strings.Contains(body, "gauge sessions.active 2") {
		t.Errorf("/metrics missing gauge: %q", body)
	}

	code, body = get("/vars")
	if code != 200 || !strings.Contains(body, `"requests.total"`) {
		t.Fatalf("/vars: %d %q", code, body)
	}
	if !strings.Contains(body, `"rpc.latency_seconds"`) {
		t.Errorf("/vars missing latency histogram: %q", body)
	}

	code, _ = get("/")
	if code != 302 && code != 307 && code != 200 {
		t.Fatalf("/ returned %d", code)
	}
	code, _ = get("/nope")
	if code != 404 {
		t.Fatalf("unknown path returned %d, want 404", code)
	}
}
