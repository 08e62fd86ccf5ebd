#!/bin/sh
# bench-report.sh — run the solver-centric benchmark suite and emit a
# machine-readable report (BENCH_10.json) comparing it against the
# checked-in pre-optimization baseline (benchmarks/baseline.txt), as run
# by CI and `make bench-report`.
#
# The allocation gate is enforced (allocs/op is machine-independent);
# wall-clock ratios are reported but not gated, since the baseline was
# recorded on different hardware than the CI runners. The yield and
# faultmap benchmarks carry their own deterministic gates (>=100x fewer
# exact solves than naive Monte-Carlo at matched CI width; March m-LZ
# fully covers a nonzero DRF population that March C- escapes) inside
# the benchmark bodies; the yield and faultmap gates are re-checked here
# from the bench output so a failure cannot hide behind the tee
# pipeline.
#
# Requires only a POSIX shell and go. Exits non-zero on any failure.
set -eu

OUT="${1:-BENCH_10.json}"
RAW="${OUT%.json}.bench.txt"
BASELINE="benchmarks/baseline.txt"
BENCHES='^(BenchmarkTable2|BenchmarkDictionaryBuild|BenchmarkDiagnoseIndexed|BenchmarkRegulatorOP|BenchmarkRegulatorOPWarm|BenchmarkDSEntryTransient|BenchmarkDiagnose|BenchmarkYield6Sigma|BenchmarkFaultMapCoverage|BenchmarkNoiseCriterion)$'

echo "bench-report: running benchmark suite (this takes a few minutes)"
go test -run '^$' -bench "$BENCHES" -benchmem -benchtime=1x -count=5 . | tee "$RAW"

echo "bench-report: checking yield speedup gate (>= 100x over naive MC)"
YIELD_SPEEDUP=$(awk '/^BenchmarkYield6Sigma/ {
	for (i = 1; i < NF; i++) if ($(i + 1) == "speedup") { print $i; exit }
}' "$RAW")
[ -n "$YIELD_SPEEDUP" ] || {
	echo "bench-report: FAIL: no speedup metric in BenchmarkYield6Sigma output" >&2
	exit 1
}
awk "BEGIN { exit !($YIELD_SPEEDUP >= 100) }" || {
	echo "bench-report: FAIL: yield speedup ${YIELD_SPEEDUP}x < 100x" >&2
	exit 1
}
echo "bench-report: yield speedup ${YIELD_SPEEDUP}x"

echo "bench-report: checking faultmap DRF gate (m-LZ DRF coverage = 1 on a nonzero DRF population)"
FM_DRF_COV=$(awk '/^BenchmarkFaultMapCoverage/ {
	for (i = 1; i < NF; i++) if ($(i + 1) == "mlz-drf-cov") { print $i; exit }
}' "$RAW")
FM_DRF_BITS=$(awk '/^BenchmarkFaultMapCoverage/ {
	for (i = 1; i < NF; i++) if ($(i + 1) == "drf-bits") { print $i; exit }
}' "$RAW")
[ -n "$FM_DRF_COV" ] && [ -n "$FM_DRF_BITS" ] || {
	echo "bench-report: FAIL: no DRF metrics in BenchmarkFaultMapCoverage output" >&2
	exit 1
}
awk "BEGIN { exit !($FM_DRF_BITS >= 1 && $FM_DRF_COV >= 1) }" || {
	echo "bench-report: FAIL: faultmap DRF gate: coverage $FM_DRF_COV on $FM_DRF_BITS DRF bits" >&2
	exit 1
}
echo "bench-report: faultmap m-LZ covers $FM_DRF_BITS DRF bits"

echo "bench-report: checking indexed-matcher gate (>= 20x over the linear scan on >= 1e5 entries)"
DX_SPEEDUP=$(awk '/^BenchmarkDiagnoseIndexed/ {
	for (i = 1; i < NF; i++) if ($(i + 1) == "speedup") { print $i; exit }
}' "$RAW")
DX_ENTRIES=$(awk '/^BenchmarkDiagnoseIndexed/ {
	for (i = 1; i < NF; i++) if ($(i + 1) == "dict-entries") { print $i; exit }
}' "$RAW")
[ -n "$DX_SPEEDUP" ] && [ -n "$DX_ENTRIES" ] || {
	echo "bench-report: FAIL: no speedup/dict-entries metrics in BenchmarkDiagnoseIndexed output" >&2
	exit 1
}
awk "BEGIN { exit !($DX_ENTRIES >= 100000 && $DX_SPEEDUP >= 20) }" || {
	echo "bench-report: FAIL: indexed matcher ${DX_SPEEDUP}x on $DX_ENTRIES entries (want >= 20x on >= 1e5)" >&2
	exit 1
}
echo "bench-report: indexed matcher ${DX_SPEEDUP}x over the linear scan on $DX_ENTRIES entries"

echo "bench-report: checking noise-criterion gates (>= 2x warm-start reuse, >= 20 mV near-DRV tightening)"
NS_RATIO=$(awk '/^BenchmarkNoiseCriterion/ {
	for (i = 1; i < NF; i++) if ($(i + 1) == "cold/warm-dc-iters") { print $i; exit }
}' "$RAW")
NS_TIGHTEN=$(awk '/^BenchmarkNoiseCriterion/ {
	for (i = 1; i < NF; i++) if ($(i + 1) == "tighten-mv") { print $i; exit }
}' "$RAW")
[ -n "$NS_RATIO" ] && [ -n "$NS_TIGHTEN" ] || {
	echo "bench-report: FAIL: no warm-reuse/tightening metrics in BenchmarkNoiseCriterion output" >&2
	exit 1
}
awk "BEGIN { exit !($NS_RATIO >= 2 && $NS_TIGHTEN >= 20) }" || {
	echo "bench-report: FAIL: noise criterion: warm-start reuse ${NS_RATIO}x (want >= 2x), tightening ${NS_TIGHTEN} mV (want >= 20)" >&2
	exit 1
}
echo "bench-report: noise ensembles reuse warm starts at ${NS_RATIO}x fewer DC iters; CS5-1 tightens ${NS_TIGHTEN} mV"

echo "bench-report: generating $OUT"
go run ./cmd/benchreport \
	-in "$RAW" \
	-baseline "$BASELINE" \
	-o "$OUT" \
	-check BenchmarkTable2,BenchmarkDictionaryBuild \
	-min-alloc-ratio 2

echo "bench-report: PASS ($OUT)"
