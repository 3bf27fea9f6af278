#!/bin/sh
# CI gate for the QSA reproduction. Everything here is hermetic: pure Go,
# standard library only, no network.
#
#   build     the whole module, commands included
#   vet       the stock Go checks
#   qsalint   the repo's own analyzers, all ten: the per-package checks
#             (determinism, float-eq, mutex-across-block, keyed-literals,
#             panic-in-library, unchecked-error) plus the whole-module
#             dataflow passes (hotalloc, lockorder, goleak, detflow) —
#             see README "Static analysis". Fails on any unsuppressed
#             finding and leaves a machine-readable artifact at
#             $QSALINT_JSON (default /tmp/qsalint.json)
#   test      the short suite, then again under the race detector
#   benchmark the benchmark/ module (its own go.mod, so ./... above leaves
#             it out): vet + its short suite under -race, so the yardstick
#             that drives catalog, registry and sim cannot rot unbuilt
#   chaos     the netproto fault-injection suite, explicitly under -race
#   coverage  internal/netproto statement coverage must not drop below
#             the pre-fault-plane baseline (91.0%); internal/obs (the
#             telemetry plane) must stay at or above 94.0%;
#             internal/analysis (the lint engine the other gates lean
#             on) must stay at or above 90.0%; internal/eventsim (the
#             sharded scheduler the million-peer runs sit on) must stay
#             at or above 90.0%; internal/wire (the binary codec and
#             packet framing under the UDP transport) must stay at or
#             above 90.0%; internal/load (the open-loop generator
#             behind qsaload) must stay at or above 90.0%
#   shards    scripts/bench_shards.sh smoke: a 1-shard and a 4-shard run
#             of the same seed must produce byte-identical output and
#             both must complete (timings printed; full curve via
#             scripts/bench_shards.sh → BENCH_shards.json)
#   rpc       scripts/bench_rpc.sh smoke: both transport legs (JSON over
#             TCP, binary over UDP) must complete a closed-loop run and
#             binary must stay ≥2x smaller on the payload-bearing RPCs
#             (full numbers: scripts/bench_rpc.sh → BENCH_rpc.json);
#             the binary codec fuzz corpus (FuzzBinaryDecode seeds) must
#             decode clean, and the steady-state encode/decode path must
#             hold its zero-allocations budget (TestBinarySteadyStateAllocs)
#   serving   scripts/bench_serving.sh smoke: the open-loop serving plane
#             must shed nothing at low load on all four schedule×stack
#             legs and must shed with bounded p99 on the overload leg
#             (full curve: scripts/bench_serving.sh → BENCH_serving.json);
#             the admission fast path must hold its zero-allocations
#             budget (TestAdmitFastPathAllocs, TestAdmissionFastPathAllocs)
#             and a warm RPC exchange its 16 KiB bytes budget
#             (TestRPCExchangeBytes: no 64 KiB reader per exchange)
#   bench     the Telemetry benchmarks run once; they fail if the
#             disabled-sink hot paths allocate. The request hot-path
#             benchmarks (QCS, Discover, Aggregate, SimMinute, the probe
#             table) also run once under -race as a smoke test, and the
#             steady-state Aggregate allocation budget is gated without
#             -race (the detector inflates counts). Full numbers:
#             scripts/bench_hotpath.sh regenerates BENCH_hotpath.json.
#             BenchmarkRingChurn (one join + one failure on rings of 10⁴,
#             10⁵ and 10⁶ nodes) runs once; its ns/op are in
#             EXPERIMENTS.md.
#
# Full statistical replays (minutes): go test ./...
set -eu

echo '>> go build ./...'
go build ./...

echo '>> go vet ./...'
go vet ./...

echo '>> go run ./cmd/qsalint ./... (all ten analyzers)'
QSALINT_JSON="${QSALINT_JSON:-/tmp/qsalint.json}"
if ! go run ./cmd/qsalint -json ./... > "$QSALINT_JSON"; then
	cat "$QSALINT_JSON"
	echo "qsalint: unsuppressed findings (artifact: $QSALINT_JSON)"
	exit 1
fi
echo "qsalint: clean (artifact: $QSALINT_JSON)"

echo '>> go test -short ./...'
go test -short ./...

echo '>> go test -race -short ./...'
go test -race -short ./...

echo '>> benchmark module: vet + short suite under -race'
(cd benchmark && go vet . && go test -short -race .)

echo '>> chaos suite under -race'
go test -race -short -run 'TestChaos' ./internal/netproto/

echo '>> netproto coverage gate'
cover_out=$(mktemp /tmp/qsa_netproto_cover.XXXXXX)
obs_cover_out=$(mktemp /tmp/qsa_obs_cover.XXXXXX)
analysis_cover_out=$(mktemp /tmp/qsa_analysis_cover.XXXXXX)
eventsim_cover_out=$(mktemp /tmp/qsa_eventsim_cover.XXXXXX)
wire_cover_out=$(mktemp /tmp/qsa_wire_cover.XXXXXX)
load_cover_out=$(mktemp /tmp/qsa_load_cover.XXXXXX)
trap 'rm -f "$cover_out" "$obs_cover_out" "$analysis_cover_out" "$eventsim_cover_out" "$wire_cover_out" "$load_cover_out"' EXIT
go test -short -coverprofile="$cover_out" ./internal/netproto/ > /dev/null
cover=$(go tool cover -func="$cover_out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
awk -v c="$cover" 'BEGIN {
	if (c + 0 < 91.0) {
		print "netproto coverage " c "% dropped below the 91.0% baseline"
		exit 1
	}
	print "netproto coverage " c "% (baseline 91.0%)"
}'

echo '>> obs (telemetry) coverage gate'
go test -short -coverprofile="$obs_cover_out" ./internal/obs/ > /dev/null
obs_cover=$(go tool cover -func="$obs_cover_out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
awk -v c="$obs_cover" 'BEGIN {
	if (c + 0 < 94.0) {
		print "obs coverage " c "% dropped below the 94.0% baseline"
		exit 1
	}
	print "obs coverage " c "% (baseline 94.0%)"
}'

echo '>> analysis (lint engine) coverage gate'
go test -short -coverprofile="$analysis_cover_out" ./internal/analysis/ > /dev/null
analysis_cover=$(go tool cover -func="$analysis_cover_out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
awk -v c="$analysis_cover" 'BEGIN {
	if (c + 0 < 90.0) {
		print "analysis coverage " c "% dropped below the 90.0% baseline"
		exit 1
	}
	print "analysis coverage " c "% (baseline 90.0%)"
}'

echo '>> eventsim (sharded scheduler) coverage gate'
go test -short -coverprofile="$eventsim_cover_out" ./internal/eventsim/ > /dev/null
eventsim_cover=$(go tool cover -func="$eventsim_cover_out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
awk -v c="$eventsim_cover" 'BEGIN {
	if (c + 0 < 90.0) {
		print "eventsim coverage " c "% dropped below the 90.0% baseline"
		exit 1
	}
	print "eventsim coverage " c "% (baseline 90.0%)"
}'

echo '>> wire (binary codec) coverage gate'
go test -short -coverprofile="$wire_cover_out" ./internal/wire/ > /dev/null
wire_cover=$(go tool cover -func="$wire_cover_out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
awk -v c="$wire_cover" 'BEGIN {
	if (c + 0 < 90.0) {
		print "wire coverage " c "% dropped below the 90.0% baseline"
		exit 1
	}
	print "wire coverage " c "% (baseline 90.0%)"
}'

echo '>> load (open-loop generator) coverage gate'
go test -short -coverprofile="$load_cover_out" ./internal/load/ > /dev/null
load_cover=$(go tool cover -func="$load_cover_out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
awk -v c="$load_cover" 'BEGIN {
	if (c + 0 < 90.0) {
		print "load coverage " c "% dropped below the 90.0% baseline"
		exit 1
	}
	print "load coverage " c "% (baseline 90.0%)"
}'

echo '>> shard determinism smoke'
scripts/bench_shards.sh smoke

echo '>> rpc wire-plane smoke'
scripts/bench_rpc.sh smoke

echo '>> serving-plane SLO smoke'
scripts/bench_serving.sh smoke

echo '>> binary codec fuzz corpus'
go test -run '^FuzzBinaryDecode$' -count=1 ./internal/wire/ > /dev/null

echo '>> telemetry zero-allocation bench smoke'
go test -run '^$' -bench Telemetry -benchtime=1x ./internal/obs/ ./internal/netproto/ > /dev/null

echo '>> hot-path bench smoke under -race'
go test -race -run '^$' -bench 'Benchmark(QCS|Discover|Aggregate|SimMinute|TableRemove|ResolveFull)$' \
	-benchtime=1x ./internal/compose/ ./internal/core/ ./internal/probe/ ./internal/sim/ > /dev/null

echo '>> ring membership bench smoke'
go test -run '^$' -bench 'BenchmarkRingChurn$' -benchtime=1x ./internal/chord/ > /dev/null

echo '>> steady-state allocation gates'
go test -run 'TestAggregateSteadyStateAllocs' -count=1 ./internal/core/ > /dev/null
go test -run 'TestBinarySteadyStateAllocs' -count=1 ./internal/wire/ > /dev/null
go test -run 'TestAdmitFastPathAllocs' -count=1 ./internal/core/ > /dev/null
go test -run 'TestAdmissionFastPathAllocs|TestRPCExchangeBytes' -count=1 ./internal/netproto/ > /dev/null

echo 'ci: ok'
