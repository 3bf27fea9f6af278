package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/registry"
	"repro/internal/session"
)

// TestPerRequestGolden pins the per-request-stream realization (Shards >
// 0) to outcomes recorded before its event engine was folded into the
// one eventsim.Engine: request and session outcomes, probing, the ψ
// series, the sha256 of the telemetry stream, and the sha256 of the
// per-request outcome table the stream analyzes to, for each of the
// paper's three algorithms. The outcome table is what the telemetry says
// about ψ; it was recorded when every outcome was still written twice,
// as decision events and as spans, and read off the decision events.
// The stream's hashes were re-recorded when the span tree became the
// one record of a request; the outcome table's were not.
// Routing statistics are deliberately left out: they count how often
// discovery ran, not what it returned.
func TestPerRequestGolden(t *testing.T) {
	type golden struct {
		requests  RequestStats
		sessions  session.Counters
		probes    probe.Stats
		series    string
		telemetry string
		outcomes  string
	}
	for _, c := range []struct {
		alg      Algorithm
		recovery bool
		want     golden
	}{
		{QSA, false, golden{
			requests:  RequestStats{Issued: 947, DepartureFailed: 644, Succeeded: 303},
			sessions:  session.Counters{Admitted: 947, Rejected: 12, Completed: 303, Failed: 644},
			probes:    probe.Stats{Probes: 211959, CacheHits: 40910, Evictions: 80053, Rejected: 60126},
			series:    "2:0.33507853403141363/382 4:0.3081081081081081/370 6:0.3128205128205128/195",
			telemetry: "851465f069c3c8646476995d98a930ab2a5788f3abd1ff43fba11f959fb08f91",
			outcomes:  "764f1ceed1eb52b4ea7d066c23cdf9820bd83c0df84dfb4c24a098c63e037a52",
		}},
		{Random, false, golden{
			requests:  RequestStats{Issued: 947, AdmissionFailed: 276, DepartureFailed: 481, Succeeded: 190},
			sessions:  session.Counters{Admitted: 671, Rejected: 276, Completed: 190, Failed: 481},
			series:    "2:0.2356020942408377/382 4:0.16756756756756758/370 6:0.19487179487179487/195",
			telemetry: "4d1f78a3cde8c0f41644f8e5b36eaf5ad1705fff223b98d4fd2e6ab0085553a9",
			outcomes:  "6061e3c229601ba98cd3c70cc9f1d1eb6898a595d3c9a651dc85d38bb16a9940",
		}},
		{Fixed, false, golden{
			requests:  RequestStats{Issued: 947, AdmissionFailed: 925, DepartureFailed: 17, Succeeded: 5},
			sessions:  session.Counters{Admitted: 22, Rejected: 925, Completed: 5, Failed: 17},
			series:    "2:0.013089005235602094/382 4:0/370 6:0/195",
			telemetry: "250f436a932d1e48db68581c9b8a5ae99dde2922139add372c12548f484eba16",
			outcomes:  "86f98f4be887ee2c35cb37f6d1fe4bad9a62aad10060b570c44d9d62b5d286e6",
		}},
		{QSA, true, golden{
			requests:  RequestStats{Issued: 947, DepartureFailed: 322, Succeeded: 625},
			sessions:  session.Counters{Admitted: 947, Rejected: 11, Completed: 625, Failed: 322, Recoveries: 740},
			probes:    probe.Stats{Probes: 244851, CacheHits: 52994, Evictions: 88855, Rejected: 65104},
			series:    "2:0.680628272251309/382 4:0.6189189189189189/370 6:0.6974358974358974/195",
			telemetry: "0e4020dc6a7accef084ad5c6e5635d98df0ca264dec20cb8b90f8d7ad1d42b08",
			outcomes:  "4ea65d46b7ae1fabff1476ee4797d3de1a431c808f9e0d6268a1926e4c30e0ad",
		}},
	} {
		cfg := DefaultConfig(1, c.alg, 2000)
		cfg.RequestRate = 200
		cfg.ChurnRate = 100
		cfg.Duration = 5
		cfg.Shards = 4
		cfg.EnableRecovery = c.recovery
		var tel bytes.Buffer
		cfg.TelemetryOut = &tel
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var series []string
		for _, p := range res.Series {
			series = append(series, fmt.Sprintf("%g:%g/%d", p.Time, p.Value, p.N))
		}
		got := golden{
			requests:  res.Requests,
			sessions:  res.Sessions,
			probes:    res.Probes,
			series:    strings.Join(series, " "),
			telemetry: fmt.Sprintf("%x", sha256.Sum256(tel.Bytes())),
			outcomes:  outcomeTable(t, tel.Bytes()),
		}
		if got != c.want {
			t.Errorf("%v (recovery %v) drifted from the recorded run:\n got  %#v\n want %#v", c.alg, c.recovery, got, c.want)
		}
	}
}

// outcomeTable returns the sha256 of the per-request outcome table of a
// telemetry stream: one row (req, outcome, err, session, retries,
// recovered) per request, in request order.
func outcomeTable(t *testing.T, stream []byte) string {
	t.Helper()
	evs, err := obs.ReadEvents(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.Analyze(evs)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range rep.Requests {
		fmt.Fprintf(h, "%d %s %q %s %d %d\n", r.Req, r.Outcome, r.Err, r.Session, r.Retries, r.Recovered)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestChurnGolden pins one small churned run, in both realizations, to
// recorded counts. The shard and cache invariance suites compare a build
// with itself; this one fails if a change to the DHT bookkeeping moves a
// routing decision, a hop, an epoch bump or an RNG draw. The routing
// counts were last re-recorded when joins began notifying their
// predecessors and registry writes began going straight to a remembered
// owner: Lookups + DirectWrites equals the Lookups of the run before
// (439 446 and 439 610), and every other count stayed as it was. The
// shards=4 row's lookup and cache counts moved once more when requests
// stopped being discovered twice (once ahead of their commit, once again
// when that preparation went stale); every other count stayed.
func TestChurnGolden(t *testing.T) {
	type golden struct {
		lookup   registry.LookupStats
		requests RequestStats
		probes   probe.Stats
	}
	for _, c := range []struct {
		shards int
		want   golden
	}{
		{0, golden{
			lookup:   registry.LookupStats{Lookups: 107048, TotalHops: 698890, DirectWrites: 332398, CacheHits: 581, CacheMisses: 2728, Epoch: 445279},
			requests: RequestStats{Issued: 1053, DepartureFailed: 742, Succeeded: 311},
			probes:   probe.Stats{Probes: 234599, CacheHits: 49409, Evictions: 91142, Rejected: 80249},
		}},
		{4, golden{
			lookup:   registry.LookupStats{Lookups: 106819, TotalHops: 696561, DirectWrites: 332398, CacheHits: 429, CacheMisses: 2499, Epoch: 445279},
			requests: RequestStats{Issued: 947, DepartureFailed: 644, Succeeded: 303},
			probes:   probe.Stats{Probes: 211959, CacheHits: 40910, Evictions: 80053, Rejected: 60126},
		}},
	} {
		cfg := DefaultConfig(1, QSA, 2000)
		cfg.RequestRate = 200
		cfg.ChurnRate = 100
		cfg.Duration = 5
		cfg.Shards = c.shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := golden{lookup: res.Lookup, requests: res.Requests, probes: res.Probes}
		if got != c.want {
			t.Errorf("shards=%d drifted from the recorded run:\n got  %+v\n want %+v", c.shards, got, c.want)
		}
	}
}
