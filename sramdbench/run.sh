#!/usr/bin/env bash
# Builds sramd and the sramdbench client from the checkout in the current
# directory, then runs the client with the given flags, e.g.
#
#   bash sramdbench/run.sh -workload table2 -seed 1 -seconds 30 -trace 0
#
# Go's build cache, config and temporary files, the binaries, daemon logs
# and span dumps all stay under .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/sramd" ./cmd/sramd
(cd sramdbench && go build -o "$out/sramdbench" .)
exec "$out/sramdbench" -sramd "$out/sramd" -work "$out/work" "$@"
