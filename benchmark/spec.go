package main

// This file is the benchmark's vocabulary: the workload and metric names
// every later issue uses. BENCHMARK.json at the repository root repeats
// the names, units, directions and bounds; spec_test.go keeps the two in
// step.

// runSeconds is BENCHMARK.json's run_seconds: the measuring budget of
// one run, which the phases below divide between them.
const runSeconds = 28

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
	// Floor is the issue's absolute floor under a bound ("25 % or 0.05 s"):
	// sets that differ by no more agree whatever the share. BENCHMARK.json
	// has no key for it, so only -sets applies it.
	Floor float64 `json:"-"`
}

// endToEnd are the metrics a user of either front end sees. Every
// workload reports every one of them (the contract's rule), so each is
// defined for both front ends:
//
//	setup_s     sim: sim.New. wire: a cold start — start, join and provide
//	            the overlay until every peer sees every member, connect a
//	            client, carry one aggregation. Median of the set-ups in a
//	            run (at least 5 and 9).
//	agg_per_s   aggregation requests carried to a definite outcome per
//	            wall-second. sim: Requests.Issued / the fastest repeat's
//	            sim.Run wall (× peers × minutes / Issued gives peer-minutes
//	            per second, printed beside it). wire: closed-loop goodput, median
//	            over half-second windows; CallersPerCPU × nproc callers,
//	            and nproc is 1 under BENCHMARK.json's command.
//	ok_share    share of requests that succeed. sim: ψ, exact per seed.
//	            wire: share of the closed loop's requests that complete OK
//	            within the 250 ms limit.
//	rss_mb      resident set. sim: the process's high-water mark (VmHWM) at
//	            the end of the run; the simulator's heap only grows. wire:
//	            median of VmRSS sampled every half second through the
//	            closed loop.
//
// The latency percentiles, agg_p50_ms and agg_p99_ms, are per-layer
// metrics: see README.md, "What the issue's ten became". One bound serves
// all four workloads, so the one that repeats worst on the reference box
// sets it; README.md, "Bounds", has the spreads they were taken from.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "agg_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "ok_share", Unit: "ratio", Better: "higher", Bound: 0.10},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the single-layer metrics of a -trace run; layer = module
// name. A metric that does not apply to a workload's front end reads 0
// there (wire.* and netproto.* on the sim workloads, and the reverse).
var perLayer = []metricDef{
	{Name: "registry.discover_us_per_req", Unit: "us", Better: "lower"},
	{Name: "registry.lookups_per_req", Unit: "count", Better: "lower"},
	{Name: "registry.hops_per_lookup", Unit: "count", Better: "lower"},
	{Name: "registry.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "registry.write_us_per_churn", Unit: "us", Better: "lower"},
	{Name: "compose.qcs_us_per_req", Unit: "us", Better: "lower"},
	{Name: "compose.vertices_per_run", Unit: "count", Better: "lower"},
	{Name: "compose.memo_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "core.finish_us_per_req", Unit: "us", Better: "lower"},
	{Name: "core.retries_per_req", Unit: "count", Better: "lower"},
	{Name: "probe.resolve_us", Unit: "us", Better: "lower"},
	{Name: "probe.probes_per_req", Unit: "count", Better: "lower"},
	{Name: "probe.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "selection.select_us_per_hop", Unit: "us", Better: "lower"},
	{Name: "selection.informed_share", Unit: "ratio", Better: "higher"},
	{Name: "session.admit_us", Unit: "us", Better: "lower"},
	{Name: "session.admit_fail_share", Unit: "ratio", Better: "lower"},
	{Name: "eventsim.us_per_event", Unit: "us", Better: "lower"},
	{Name: "eventsim.events_per_req", Unit: "count", Better: "lower"},
	{Name: "topology.churn_us_per_event", Unit: "us", Better: "lower"},
	{Name: "sim.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "sim.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "sim.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.infra_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.peer_min_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wire.binary.enc_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.binary.dec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.json.enc_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.json.dec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_agg", Unit: "B", Better: "lower"},
	{Name: "netproto.rpcs_per_agg", Unit: "count", Better: "lower"},
	{Name: "netproto.lookup_rpcs_per_agg", Unit: "count", Better: "lower"},
	{Name: "netproto.rpc_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netproto.rpc_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "netproto.rpc_retry_share", Unit: "ratio", Better: "lower"},
	{Name: "netproto.transport.conn_reuse_share", Unit: "ratio", Better: "higher"},
	{Name: "netproto.transport.retransmits_per_agg", Unit: "count", Better: "lower"},
	{Name: "netproto.discovery_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netproto.compose_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netproto.selection_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netproto.reserve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "netproto.probe_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "netproto.serve.queue_wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "netproto.serve.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "netproto.serve.overload_goodput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "netproto.client_hop_ms", Unit: "ms", Better: "lower"},
	{Name: "netproto.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "load.lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "load.dropped_share", Unit: "ratio", Better: "lower"},
	{Name: "agg_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "agg_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "knee_rps", Unit: "1/s", Better: "higher"},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_share", Unit: "ratio", Better: "lower"},
}

type workloadDef struct {
	Name string        `json:"name"`
	Why  string        `json:"why"`
	Sim  *simWorkload  `json:"-"`
	Wire *wireWorkload `json:"-"`
}

var workloads = []workloadDef{
	{
		Name: "sim_static_10k",
		Why:  "paper Fig 5 point: QSA, 10^4 peers, 200 req/min, no churn, classic engine; the per-request pipeline (compose, probe, select, admit) does the work",
		Sim:  &simWorkload{Peers: 10000, RequestRate: 200, Duration: 60},
	},
	{
		Name: "sim_churn_100k",
		Why:  "10^5 peers, 2000 req/min, churn 1000 peers/min, 4 shards: registry and probe writes, cache invalidation, event queue and barrier carry the cost; psi near 0.6 runs the failure paths",
		Sim:  &simWorkload{Peers: 100000, RequestRate: 2000, ChurnRate: 1000, Duration: 5, Shards: 4},
	},
	{
		Name: "wire_small",
		Why:  "1 serving peer with admission + 2 providers, 1-service path, binary over UDP: 2 lookup RPCs per aggregation, so codec, transport and admission carry the cost, not discovery",
		Wire: &wireWorkload{
			Peers: 3, Providers: 2, Services: 1, InstancesPerService: 2, ProvidersPerInstance: 1,
			Network: "udp", Codec: "binary", AdmitWorkers: 64, AdmitQueue: 256, CallersPerCPU: 4,
			Rates: [4]float64{1000, 2000, 3000, 6000}, MaxInFlight: 512,
		},
	},
	{
		Name: "wire_flood_32",
		Why:  "32 peers, 3-service path, 4 instances per service spread 2 per provider, JSON over TCP pooled 8 deep: discovery floods 93 lookup RPCs per aggregation behind one Peer.mu, so discovery dominates",
		Wire: &wireWorkload{
			Peers: 32, Providers: 12, Services: 3, InstancesPerService: 4, ProvidersPerInstance: 2,
			Network: "tcp", Codec: "json", PoolConns: 8, CallersPerCPU: 1,
			Rates: [4]float64{55, 120, 170, 400}, MaxInFlight: 16,
		},
	},
}

// benchCommand is BENCHMARK.json's command. taskset keeps the build and
// the run on one virtual CPU, so nproc, GOMAXPROCS and the callers per CPU
// are all 1× there. The host runs the box's two virtual CPUs now on two
// cores and now on the two threads of one, for minutes at a time and
// following the load: two spinning threads together then do the work of
// one, and every number that uses both CPUs moves with that state in steps
// of a tenth to a quarter (README.md, "One CPU"). One CPU reads the same in
// both states.
var benchCommand = []string{"taskset", "-c", "0", "go", "run", "-C", "benchmark", "."}

// benchmarkFile is BENCHMARK.json's shape. `go run -C benchmark . -spec`
// prints it from the tables above, so the file is generated, not typed.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func specFile() benchmarkFile {
	return benchmarkFile{Command: benchCommand, Paths: []string{"benchmark"},
		RunSeconds: runSeconds, Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
