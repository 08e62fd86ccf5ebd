#!/bin/sh
# faultmap-smoke.sh — end-to-end smoke test of the correlated fault-map
# path, as run by CI and `make faultmap-smoke`: build the faultmap CLI
# and sramd, evaluate a 1000-map corpus locally at three worker counts
# (must be byte-identical), regenerate a corpus dump twice (must be
# byte-identical), fan the same evaluation out as shard jobs through a
# daemon's POST /v1/batch (cmd/faultmap -cluster; merged output must be
# byte-identical to the local run), submit it once more as a whole
# daemon job (same bytes again), and check the faultmap counters
# surface on /metrics — including that the daemon ran exactly one
# 48-solve DRV calibration for the three jobs of the one corpus (the
# shared DRV memo). Writes the report to results/faultmap-smoke.txt.
#
# FAULTMAP_MAPS overrides the corpus size (default 1000 — the
# determinism contract is the point, so the corpus is kept at real
# scale; the deep EXP-FM sweep lives in results/faultmap*.txt).
#
# Requires only a POSIX shell, curl and go. Exits non-zero on any
# failure and prints the daemon log.
set -eu

ADDR="${SRAMD_ADDR:-127.0.0.1:8359}"
BASE="http://$ADDR"
MAPS="${FAULTMAP_MAPS:-1000}"
TMP="$(mktemp -d)"
LOG="$TMP/sramd.log"
PID=""

fail() {
	echo "faultmap-smoke: FAIL: $*" >&2
	echo "--- daemon log ---" >&2
	cat "$LOG" >&2 || true
	exit 1
}

cleanup() {
	if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
		kill -TERM "$PID" 2>/dev/null || true
		wait "$PID" 2>/dev/null || true
	fi
	rm -rf "$TMP"
}
trap cleanup EXIT

echo "faultmap-smoke: building faultmap and sramd"
go build -o "$TMP/faultmap" ./cmd/faultmap
go build -o "$TMP/sramd" ./cmd/sramd

run() { # run WORKERS OUT
	"$TMP/faultmap" -maps "$MAPS" -tests 'March m-LZ,March C-' -workers "$1" >"$2"
}

echo "faultmap-smoke: $MAPS-map corpus at workers=1, 4 and 8"
run 1 "$TMP/w1.txt" || fail "local run (workers=1) failed"
run 4 "$TMP/w4.txt" || fail "local run (workers=4) failed"
run 8 "$TMP/w8.txt" || fail "local run (workers=8) failed"
cmp -s "$TMP/w1.txt" "$TMP/w4.txt" || fail "workers=4 changed the corpus bytes"
cmp -s "$TMP/w1.txt" "$TMP/w8.txt" || fail "workers=8 changed the corpus bytes"
grep -q "EXP-FM" "$TMP/w1.txt" || fail "not a faultmap report: $(cat "$TMP/w1.txt")"
grep -q "corpus digest" "$TMP/w1.txt" || fail "no corpus digest in the report"
grep -q "March m-LZ" "$TMP/w1.txt" || fail "no March m-LZ row in the report"

echo "faultmap-smoke: corpus dump regenerates byte-identically"
"$TMP/faultmap" -maps 64 -dump >"$TMP/dump1.ndjson" || fail "corpus dump failed"
"$TMP/faultmap" -maps 64 -dump -workers 4 >"$TMP/dump2.ndjson" || fail "second corpus dump failed"
cmp -s "$TMP/dump1.ndjson" "$TMP/dump2.ndjson" || fail "regenerated corpus dump differs"
[ "$(wc -l <"$TMP/dump1.ndjson")" -eq 64 ] || fail "dump holds $(wc -l <"$TMP/dump1.ndjson") maps, want 64"

echo "faultmap-smoke: starting sramd on $ADDR"
"$TMP/sramd" -addr "$ADDR" -store-dir "$TMP/store" >"$LOG" 2>&1 &
PID=$!
i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	[ "$i" -lt 50 ] || fail "daemon never became healthy"
	kill -0 "$PID" 2>/dev/null || fail "daemon exited early"
	sleep 0.2
done

echo "faultmap-smoke: sharded cluster evaluation through POST /v1/batch"
"$TMP/faultmap" -maps "$MAPS" -tests 'March m-LZ,March C-' \
	-cluster "$BASE" -shards 2 >"$TMP/cluster.txt" || fail "cluster run failed"
cmp -s "$TMP/w1.txt" "$TMP/cluster.txt" || fail "cluster shards changed the corpus bytes"

echo "faultmap-smoke: whole faultmap job through POST /v1/jobs"
SUBMIT=$(curl -fsS -X POST "$BASE/v1/jobs" \
	-d "{\"kind\":\"faultmap\",\"faultmap\":{\"maps\":$MAPS,\"tests\":[\"March m-LZ\",\"March C-\"]}}")
ID=$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$ID" ] || fail "no job id in submit response: $SUBMIT"
i=0
while :; do
	STATUS=$(curl -fsS "$BASE/v1/jobs/$ID")
	STATE=$(printf '%s' "$STATUS" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
	case "$STATE" in
	done) break ;;
	failed | canceled) fail "job ended in state $STATE: $STATUS" ;;
	esac
	i=$((i + 1))
	[ "$i" -lt 600 ] || fail "job did not finish in time: $STATUS"
	sleep 0.5
done
curl -fsS "$BASE/v1/jobs/$ID/result" >"$TMP/daemon.txt"
cmp -s "$TMP/w1.txt" "$TMP/daemon.txt" || fail "daemon job bytes differ from the local CLI run"

echo "faultmap-smoke: checking faultmap counters on /metrics"
METRICS=$(curl -fsS "$BASE/metrics")
printf '%s\n' "$METRICS" | grep -q '^sramd_faultmap_runs_total 1$' || fail "whole evaluation not counted in /metrics"
printf '%s\n' "$METRICS" | grep -q '^sramd_faultmap_partials_total 2$' || fail "shard partials not counted in /metrics"
printf '%s\n' "$METRICS" | grep -q '^sramd_faultmap_maps_total [1-9]' || fail "no maps counted in /metrics"
printf '%s\n' "$METRICS" | grep -q '^sramd_faultmap_last_best_coverage 0\.[0-9]' || fail "no best-coverage gauge in /metrics"
printf '%s\n' "$METRICS" | grep -q '^sramd_engine_drv_solves_total 48$' ||
	fail "want one 48-solve DRV calibration across the 2 shard jobs and the whole job: $(printf '%s\n' "$METRICS" | grep '^sramd_engine_drv')"

echo "faultmap-smoke: shutting down"
kill -TERM "$PID"
wait "$PID" || fail "daemon exited non-zero on SIGTERM"
PID=""

mkdir -p results
cp "$TMP/w1.txt" results/faultmap-smoke.txt
echo "faultmap-smoke: PASS (results/faultmap-smoke.txt)"
