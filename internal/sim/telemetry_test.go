package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// telemetered builds a config with tracing and metrics enabled on a
// churning network so every failure stage can occur.
func telemetered(seed uint64, out *bytes.Buffer, reg *obs.Registry) Config {
	cfg := small(seed, QSA)
	cfg.ChurnRate = 12
	cfg.EnableRecovery = true
	cfg.TelemetryOut = out
	cfg.Metrics = reg
	return cfg
}

// TestTelemetryByteDeterminism is the ISSUE acceptance check: two runs
// with the same seed must produce byte-identical telemetry streams.
func TestTelemetryByteDeterminism(t *testing.T) {
	skipIfShort(t)
	var a, b bytes.Buffer
	ra, err := Run(telemetered(21, &a, obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(telemetered(21, &b, obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if ra.TelemetryErr != nil || rb.TelemetryErr != nil {
		t.Fatalf("telemetry errors: %v, %v", ra.TelemetryErr, rb.TelemetryErr)
	}
	if ra.TelemetryEvents == 0 {
		t.Fatal("no telemetry events emitted")
	}
	if ra.TelemetryEvents != rb.TelemetryEvents {
		t.Fatalf("event counts differ: %d vs %d", ra.TelemetryEvents, rb.TelemetryEvents)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same-seed telemetry streams are not byte-identical")
	}
}

// TestTelemetryAttribution checks that the trace accounts for every
// issued request, and that per-stage failure counts reconcile exactly
// with the simulator's own RequestStats (the ψ bookkeeping).
func TestTelemetryAttribution(t *testing.T) {
	skipIfShort(t)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	res, err := Run(telemetered(22, &buf, reg))
	if err != nil {
		t.Fatal(err)
	}
	if res.TelemetryErr != nil {
		t.Fatal(res.TelemetryErr)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(events)) != res.TelemetryEvents {
		t.Fatalf("read %d events, result says %d", len(events), res.TelemetryEvents)
	}
	rep, err := obs.Analyze(events)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Requests
	if uint64(len(rep.Requests)) != r.Issued {
		t.Fatalf("trace has %d requests, simulator issued %d", len(rep.Requests), r.Issued)
	}
	want := map[string]uint64{
		obs.StageDiscovery:  r.DiscoveryFailed,
		obs.StageCompose:    r.ComposeFailed,
		obs.StageSelection:  r.SelectionFailed,
		obs.StageAdmission:  r.AdmissionFailed,
		obs.StageDeparture:  r.DepartureFailed,
		obs.OutcomeSuccess:  r.Succeeded,
		obs.OutcomeAdmitted: 0, // Run drains all sessions before returning
		obs.OutcomePending:  0,
	}
	for stage, n := range want {
		if got := uint64(rep.Count(stage)); got != n {
			t.Errorf("stage %q: trace says %d, stats say %d", stage, got, n)
		}
	}
	if r.DepartureFailed == 0 {
		t.Error("churn run produced no departure failures; attribution untested")
	}
	// The registry must have seen the same admission decisions the trace did.
	snap := reg.Snapshot()
	counters := make(map[string]uint64, len(snap.Counters))
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["session.admitted"] != res.Sessions.Admitted {
		t.Errorf("metric session.admitted = %d, want %d", counters["session.admitted"], res.Sessions.Admitted)
	}
	if counters["compose.runs"] == 0 {
		t.Error("compose.runs counter never incremented")
	}
	if counters["select.steps"] == 0 {
		t.Error("select.steps counter never incremented")
	}
}

// TestTelemetryDisabledIdentical checks the paper-facing invariant that
// enabling telemetry does not perturb the simulation: the outcomes, ψ,
// session counters, routing statistics and ψ series with and without
// tracing must match exactly.
func TestTelemetryDisabledIdentical(t *testing.T) {
	var buf bytes.Buffer
	with, err := Run(telemetered(23, &buf, obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	plain := telemetered(23, nil, nil)
	plain.TelemetryOut = nil
	plain.Metrics = nil
	without, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if with.Requests != without.Requests {
		t.Fatalf("telemetry changed outcomes: %+v vs %+v", with.Requests, without.Requests)
	}
	if with.Psi != without.Psi || with.Sessions != without.Sessions || with.Lookup != without.Lookup {
		t.Fatal("telemetry changed ψ, session counters, or routing stats")
	}
	if !reflect.DeepEqual(with.Series, without.Series) {
		t.Fatal("telemetry changed the ψ time series")
	}
}
