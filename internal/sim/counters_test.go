package sim

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// TestCountersMatchResult: every event a subsystem counts is counted
// once, so the counters a run leaves in Config.Metrics read exactly
// what its Result reports, and ψ reads exactly what its per-window
// series adds up to. A churn run with recovery exercises every session
// outcome, recoveries included.
func TestCountersMatchResult(t *testing.T) {
	cfg := small(3, QSA)
	cfg.ChurnRate = 30
	cfg.EnableRecovery = true
	cfg.Metrics = obs.NewRegistry()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]uint64)
	for _, c := range cfg.Metrics.Snapshot().Counters {
		counts[c.Name] = c.Value
	}
	sc, ps, sel, lk := res.Sessions, res.Probes, res.Selection, res.Lookup
	for name, want := range map[string]uint64{
		"session.admitted":       sc.Admitted,
		"session.rejected":       sc.Rejected,
		"session.completed":      sc.Completed,
		"session.failed":         sc.Failed,
		"session.recoveries":     sc.Recoveries,
		"probe.probes":           ps.Probes,
		"probe.cache_hits":       ps.CacheHits,
		"probe.evictions":        ps.Evictions,
		"probe.rejected":         ps.Rejected,
		"select.informed":        sel.Informed,
		"select.fallbacks":       sel.Fallbacks,
		"select.failures":        sel.Failures,
		"discovery.cache_hits":   lk.CacheHits,
		"discovery.cache_misses": lk.CacheMisses,
	} {
		if got, ok := counts[name]; !ok || got != want {
			t.Errorf("counter %s = %d (emitted %v), Result says %d", name, got, ok, want)
		}
	}
	if sc.Recoveries == 0 || sc.Failed == 0 || ps.Evictions == 0 {
		t.Fatalf("run exercised too little: sessions %+v, probes %+v", sc, ps)
	}

	rq := res.Requests
	if res.Psi.Total() != rq.Issued || res.Psi.Success != rq.Succeeded {
		t.Errorf("psi %v, request stats %+v", res.Psi, rq)
	}
	var n, ok uint64
	for _, p := range res.Series {
		n += p.N
		ok += uint64(math.Round(p.Value * float64(p.N)))
	}
	if n != res.Psi.Total() || ok != res.Psi.Success {
		t.Errorf("series totals %d/%d, psi %v", ok, n, res.Psi)
	}
}
