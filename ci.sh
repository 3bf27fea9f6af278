#!/bin/sh
# CI gate for the QSA reproduction. Everything here is hermetic: pure Go,
# standard library only, no network. Each step runs once; nothing below
# re-runs a test an earlier step already ran with the same flags.
#
#   build     the whole module, commands included
#   vet       the stock Go checks (composites covers keyed struct literals)
#   qsalint   the repo's own analyzers: determinism, panic-in-library,
#             unchecked-error and lockorder (README "Static analysis").
#             Fails on any unsuppressed finding and leaves a
#             machine-readable artifact at $QSALINT_JSON (default
#             /tmp/qsalint.json). This is the lint gate; TestLintClean
#             repeats it only in the full, non-short suite
#   test      the short suite with statement coverage. It carries the
#             determinism and SLO gates: the per-request-stream
#             realization (sim.Config.Shards > 0) pinned to outcomes
#             recorded before its engine was folded into eventsim.Engine,
#             to each algorithm's per-request outcome table (request,
#             outcome, error, session, recompositions, recoveries) as
#             the telemetry analyzes it, recorded while every outcome was
#             still written twice, and to the hash of the telemetry
#             stream, one span tree per request; a QSA row with runtime
#             recovery on pins the recovery path, recorded before it
#             moved into core (TestPerRequestGolden),
#             byte-identical output with caches off
#             (TestCachesAreInvisible), the prototype's pipeline decisions
#             and spans per scenario (TestPipelineGolden), the
#             simulator and the prototype, both running
#             core.StrategyQSA on one catalog over 12 seeds, composing
#             the same path at every attempt both make (a slice whose
#             first selection fails recomposes on both) and re-homing a
#             crashed host's component onto the same replacement
#             (TestSimPrototypeDifferential), binary at
#             most half of JSON on
#             lookup/select (TestBinaryHalvesPayloadRPCs), zero shed at
#             low load and bounded shedding under overload
#             (TestServingSLO), frames and JSON lines byte-identical to
#             older peers' (TestGoldenRequestBytes, TestGoldenJSONLines),
#             the JSON codec byte- and struct-identical to encoding/json
#             (TestJSONMatchesEncodingJSON), the codec fuzz corpora
#             (FuzzBinaryDecode's seeds decode clean; on FuzzJSONDecode's,
#             the committed edge cases in internal/wire/testdata, the JSON
#             codec agrees with encoding/json), and the allocation gates
#             (testing.AllocsPerRun, each budget at its measured count):
#             TestAggregateSteadyStateAllocs (Aggregate, Recover),
#             TestQCSSteadyStateAllocs, TestResolveSteadyStateAllocs,
#             TestResolveNewcomerAllocs (evict, insert and probe on a
#             full table), TestJoinBulkAllocs (a 10⁴-node bulk join:
#             a handful per slab chunk and per call, none per node;
#             TestRingBytesPerNode bounds the ring's heap per node),
#             TestBinarySteadyStateAllocs (codec, packet
#             framing, buffer pool), TestJSONEncodeAllocs,
#             TestBandwidthLedgerAllocs (reserve, available and release
#             on a live pair: 0), TestMemoHitAllocs (a compose.Memo
#             hit: 0), the admission fast paths and
#             TestRPCExchangeBytes (16 KiB per warm exchange; a warm UDP
#             client exchange on the transport's shared endpoint at its
#             measured 32 allocations; zero-alloc reader checkout)
#   coverage  each package in the table below (by import path; repro is
#             the public façade) must keep the short suite's statement
#             coverage at or above its floor
#   size      prints the non-test Go line count and the qsalint waiver
#             count, with ROADMAP.md's two commands; reported, not gated
#   race      the short suite again under the race detector, the netproto
#             chaos suite included; allocation gates that a sync.Pool or
#             the instrumentation would skew skip themselves there
#   benchmark the benchmark/ module (its own go.mod, so ./... above leaves
#             it out): vet + its short suite under -race, so the yardstick
#             that drives catalog, registry and sim cannot rot unbuilt
#   bench     the Telemetry benchmarks run once; they fail if the
#             disabled-sink hot paths allocate. The request hot-path
#             benchmarks (QCS, Discover, Aggregate, SimMinute, the probe
#             table) also run once under -race as a smoke test, and
#             BenchmarkRingChurn (one join + one failure on rings of 10⁴,
#             10⁵ and 10⁶ nodes), BenchmarkJoinBulk (populating a ring of
#             10⁵ nodes) and BenchmarkRegistryRefresh (one soft-state
#             sweep of every registration on a 10⁴-peer ring, reporting
#             routed lookups/op) run once; their numbers are in
#             EXPERIMENTS.md
#
# Full statistical replays (minutes): go test ./...
set -eu

echo '>> go build ./...'
go build ./...

echo '>> go vet ./...'
go vet ./...

echo '>> go run ./cmd/qsalint ./...'
QSALINT_JSON="${QSALINT_JSON:-/tmp/qsalint.json}"
if ! go run ./cmd/qsalint -json ./... > "$QSALINT_JSON"; then
	cat "$QSALINT_JSON"
	echo "qsalint: unsuppressed findings (artifact: $QSALINT_JSON)"
	exit 1
fi
echo "qsalint: clean (artifact: $QSALINT_JSON)"

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
	awk -v pkg="$pkg" -v floor="$floor" '
		$2 == pkg { for (i = 3; i < NF; i++) if ($i == "coverage:") { c = $(i + 1); sub(/%/, "", c) } }
		END {
			if (c == "" || c + 0 < floor + 0) {
				print pkg " coverage " c "% dropped below the " floor "% floor"
				exit 1
			}
			print pkg " coverage " c "% (floor " floor "%)"
		}' "$short_out"
done <<EOF
repro 92.2
repro/internal/core 89.3
repro/internal/netproto 91.0
repro/internal/obs 94.0
repro/internal/analysis 90.0
repro/internal/eventsim 90.0
repro/internal/wire 90.0
repro/internal/load 90.0
repro/internal/session 91.0
repro/internal/probe 98.0
repro/internal/chord 97.0
repro/internal/selection 92.0
repro/internal/registry 95.0
repro/internal/sim 78.7
repro/internal/faults 89.0
repro/internal/compose 98.0
repro/internal/resource 96.0
EOF

echo '>> size (reported, not gated)'
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
	lines=$(git ls-files '*.go' | grep -v -e '_test\.go$' -e '/testdata/' -e '^benchmark/' | xargs cat | wc -l)
	# The waiver pattern is split so that this script does not count itself.
	waivers=$(git grep -o 'lint:''allow' -- ':!*.md' ':!internal/analysis/testdata' | wc -l)
	echo "non-test Go lines: $lines; qsalint waivers: $waivers"
else
	echo 'size: not a git checkout; line and waiver counts skipped'
fi

echo '>> go test -race -short ./...'
go test -race -short ./...

echo '>> benchmark module: vet + short suite under -race'
(cd benchmark && go vet . && go test -short -race .)

echo '>> telemetry zero-allocation bench smoke'
go test -run '^$' -bench Telemetry -benchtime=1x ./internal/obs/ ./internal/netproto/ > /dev/null

echo '>> hot-path bench smoke under -race'
go test -race -run '^$' -bench 'Benchmark(QCS|Discover|Aggregate|SimMinute|TableRemove|ResolveFull)$' \
	-benchtime=1x ./internal/compose/ ./internal/core/ ./internal/probe/ ./internal/sim/ > /dev/null

echo '>> ring membership and registry refresh bench smoke'
go test -run '^$' -bench 'Benchmark(RingChurn|JoinBulk|RegistryRefresh)$' -benchtime=1x ./internal/chord/ ./internal/registry/ > /dev/null

echo 'ci: ok'
