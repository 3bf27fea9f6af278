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
#             $QSALINT_JSON (default /tmp/qsalint.json); then again with
#             -tests, so a stale waiver in a test file fails too
#   test      the short suite with statement coverage, then again under
#             the race detector. It carries the determinism and SLO gates:
#             byte-identical output across shard counts
#             (TestShardCountInvariance) and with caches off
#             (TestCachesAreInvisible), binary at most half of JSON on
#             lookup/select (TestBinaryHalvesPayloadRPCs), zero shed at
#             low load and bounded shedding under overload
#             (TestServingSLO), frames byte-identical to older peers'
#             (TestGoldenRequestBytes)
#   coverage  each package in the table below must keep the short
#             suite's statement coverage at or above its floor
#   benchmark the benchmark/ module (its own go.mod, so ./... above leaves
#             it out): vet + its short suite under -race, so the yardstick
#             that drives catalog, registry and sim cannot rot unbuilt
#   chaos     the netproto fault-injection suite, explicitly under -race
#   fuzz      the binary codec fuzz corpus (FuzzBinaryDecode seeds) must
#             decode clean
#   bench     the Telemetry benchmarks run once; they fail if the
#             disabled-sink hot paths allocate. The request hot-path
#             benchmarks (QCS, Discover, Aggregate, SimMinute, the probe
#             table) also run once under -race as a smoke test, and
#             BenchmarkRingChurn (one join + one failure on rings of 10⁴,
#             10⁵ and 10⁶ nodes) runs once; its ns/op are in
#             EXPERIMENTS.md
#   allocs    the zero-allocation budgets of the steady-state Aggregate,
#             the binary codec and the admission fast paths, and a warm
#             RPC exchange's 16 KiB bytes budget (TestRPCExchangeBytes:
#             no 64 KiB reader per exchange), all without -race (the
#             detector inflates counts)
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
echo '>> go run ./cmd/qsalint -tests ./...'
go run ./cmd/qsalint -tests ./...

echo '>> go test -short -cover ./...'
short_out=$(mktemp /tmp/qsa_short.XXXXXX)
trap 'rm -f "$short_out"' EXIT
if ! go test -short -cover ./... > "$short_out"; then
	cat "$short_out"
	exit 1
fi
cat "$short_out"

echo '>> coverage floors'
while read -r pkg floor; do
	awk -v pkg="repro/internal/$pkg" -v floor="$floor" '
		$2 == pkg { for (i = 3; i < NF; i++) if ($i == "coverage:") { c = $(i + 1); sub(/%/, "", c) } }
		END {
			if (c == "" || c + 0 < floor + 0) {
				print pkg " coverage " c "% dropped below the " floor "% floor"
				exit 1
			}
			print pkg " coverage " c "% (floor " floor "%)"
		}' "$short_out"
done <<EOF
netproto 91.0
obs 94.0
analysis 90.0
eventsim 90.0
wire 90.0
load 90.0
EOF

echo '>> go test -race -short ./...'
go test -race -short ./...

echo '>> benchmark module: vet + short suite under -race'
(cd benchmark && go vet . && go test -short -race .)

echo '>> chaos suite under -race'
go test -race -short -run 'TestChaos' ./internal/netproto/

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
