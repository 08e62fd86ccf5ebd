#!/bin/sh
# artifacts.sh — the archived-artifacts gate, as run by CI and
# `make artifacts`: rerun the EXPERIMENTS.md command of every
# deterministic artifact in results/, overwrite the archived file with
# its output, and fail if `git diff --exit-code results/` shows any
# change. Run from the repository root.
#
#   sh scripts/artifacts.sh               # every artifact (~6.5 min on 2 cores)
#   sh scripts/artifacts.sh table1 mc     # only the named ones
#
# Costs on a 2-core host: table3 120-160 s, table2 90-100 s,
# faultmap-rails ~30 s, fig4/mc/faultmap/faultmap-smoke/yield/
# yield-blockade ~10 s each, the rest a few seconds together.
#
# Left out, with the reason:
#   diag.txt        `diagnose stats` of a dictionary that `diagnose build`
#                   takes ~6 min on one core to produce; the diag-smoke
#                   and diag-index-smoke gates cover that path.
#   diag-index.txt  its content is measured throughput (timing), so it
#                   differs on every run.
#   loadgen-cluster-*.json  load-generator timing reports.
#
# Requires only a POSIX shell, git and go.
set -eu

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

ALL="table1 fig4 table2 classify stability table3 power coverage dwell mc
yield yield-blockade yield-smoke faultmap faultmap-rails faultmap-smoke
noise noise-smoke"

echo "artifacts: building the tools"
for tool in drv defectchar flow powersim marchsim yield faultmap noisescan; do
	go build -o "$TMP/$tool" "./cmd/$tool"
done

# produce NAME: write artifact NAME's EXPERIMENTS.md command output to stdout.
produce() {
	case "$1" in
	table1) "$TMP/drv" -table1 ;;
	fig4) "$TMP/drv" -fig4 ;;
	table2) "$TMP/defectchar" ;;
	classify) "$TMP/defectchar" -classify ;;
	stability) "$TMP/defectchar" -stability ;;
	table3) "$TMP/flow" ;;
	power) "$TMP/powersim" ;;
	coverage) "$TMP/marchsim" ;;
	dwell) "$TMP/drv" -dwell ;;
	mc) "$TMP/drv" -mc 300 ;;
	yield) "$TMP/yield" ;;
	yield-blockade) "$TMP/yield" -vref 0.34 -method blockade ;;
	yield-smoke) "$TMP/yield" -n 64 -vref 0.34 ;;
	faultmap) "$TMP/faultmap" -maps 256 -random 20000 ;;
	faultmap-rails) "$TMP/faultmap" -maps 256 -rails 0.36,0.40,0.44,0.48 ;;
	faultmap-smoke) "$TMP/faultmap" -maps 1000 -tests 'March m-LZ,March C-' ;;
	noise) "$TMP/noisescan" ;;
	noise-smoke) "$TMP/noisescan" -cs 5 -points 5 ;;
	*)
		echo "artifacts: unknown artifact $1 (have: $(echo $ALL))" >&2
		exit 2
		;;
	esac
}

names="${*:-$ALL}"
for name in $names; do
	start=$(date +%s)
	produce "$name" >"$TMP/$name.txt" 2>"$TMP/$name.err" || {
		echo "artifacts: FAIL: $name exited non-zero:" >&2
		cat "$TMP/$name.err" >&2
		exit 1
	}
	cp "$TMP/$name.txt" "results/$name.txt"
	echo "artifacts: $name ($(($(date +%s) - start)) s)"
done

if ! git diff --exit-code --stat -- results/; then
	git diff -- results/ | head -40
	echo "artifacts: FAIL: regenerated artifacts differ from the archived ones (see the diff above)" >&2
	exit 1
fi
echo "artifacts: PASS ($(echo $names | wc -w) artifacts byte-identical)"
