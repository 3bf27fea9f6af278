package sim

import (
	"bytes"
	"testing"

	"repro/internal/obs"
)

// TestSpanShardInvariance is the tracing acceptance bar: the telemetry
// stream — span IDs, timestamps, interleaving and all — is
// byte-identical across shard counts.
func TestSpanShardInvariance(t *testing.T) {
	var ref []byte
	var refRes *Result
	for _, shards := range []int{1, 4} {
		var tel bytes.Buffer
		cfg := shardDiffConfig(QSA, shards)
		cfg.EnableRecovery = true
		cfg.TelemetryOut = &tel
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = append([]byte(nil), tel.Bytes()...)
			refRes = res
			continue
		}
		if res.Requests != refRes.Requests {
			t.Fatalf("shards=%d RequestStats diverged:\nref: %+v\ngot: %+v", shards, refRes.Requests, res.Requests)
		}
		if !bytes.Equal(tel.Bytes(), ref) {
			t.Fatalf("shards=%d span telemetry diverged (%d vs %d bytes)", shards, len(ref), tel.Len())
		}
	}
	evs, err := obs.ReadEvents(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range evs {
		if ev.Kind == obs.KindSpan {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("traced run emitted no spans")
	}
}

// TestSpanTreeReconciles checks the structural contract qsastat stands
// on: every request has exactly one root span, every other span is
// parented inside its request's trace, every hop event names a selection
// span of its trace, and the outcomes read off the trees reconcile
// exactly with RequestStats.
func TestSpanTreeReconciles(t *testing.T) {
	var tel bytes.Buffer
	cfg := diffConfig(QSA, false)
	cfg.EnableRecovery = true
	cfg.TelemetryOut = &tel
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(&tel)
	if err != nil {
		t.Fatal(err)
	}

	roots := map[uint64]bool{}                // request → root seen
	members := map[uint64]map[uint64]string{} // trace → span ID → stage
	for _, ev := range evs {
		if ev.Kind != obs.KindSpan {
			continue
		}
		if ev.Trace == 0 || ev.Span == 0 {
			t.Fatalf("span without identity: %+v", ev)
		}
		if members[ev.Trace] == nil {
			members[ev.Trace] = map[uint64]string{}
		}
		if _, dup := members[ev.Trace][ev.Span]; dup {
			t.Fatalf("duplicate span ID %x in trace %x", ev.Span, ev.Trace)
		}
		members[ev.Trace][ev.Span] = ev.Stage
		if ev.Parent == 0 {
			if roots[ev.Req] {
				t.Fatalf("request %d has two root spans", ev.Req)
			}
			roots[ev.Req] = true
		}
	}
	for _, ev := range evs {
		switch {
		case ev.Kind == obs.KindSpan && ev.Parent != 0:
			if _, ok := members[ev.Trace][ev.Parent]; !ok {
				t.Fatalf("span %x parented under %x, which is not in trace %x", ev.Span, ev.Parent, ev.Trace)
			}
		case ev.Kind == obs.KindHop:
			if members[ev.Trace][ev.Span] != obs.StageSelection {
				t.Fatalf("hop event not under a selection span of its trace: %+v", ev)
			}
		}
	}
	if uint64(len(roots)) != res.Requests.Issued {
		t.Fatalf("%d root spans for %d issued requests", len(roots), res.Requests.Issued)
	}

	rep, err := obs.Analyze(evs)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Requests
	for stage, n := range map[string]uint64{
		obs.StageDiscovery: r.DiscoveryFailed,
		obs.StageCompose:   r.ComposeFailed,
		obs.StageSelection: r.SelectionFailed,
		obs.StageAdmission: r.AdmissionFailed,
		obs.StageDeparture: r.DepartureFailed,
		obs.OutcomeSuccess: r.Succeeded,
	} {
		if got := uint64(rep.Count(stage)); got != n {
			t.Errorf("%s: %d requests in the trees vs %d in RequestStats", stage, got, n)
		}
	}
	if res.Sessions.Recoveries > 0 {
		recovered := 0
		for _, q := range rep.Requests {
			recovered += q.Recovered
		}
		if recovered == 0 {
			t.Error("sessions recovered but no recovery span was emitted")
		}
	}
}
