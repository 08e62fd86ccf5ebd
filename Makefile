# Local mirror of the CI pipeline (.github/workflows/ci.yml).
#
#   make verify       build (root and sramdbench modules) + vet + gofmt + test
#   make race         race-enabled test run
#   make fuzz         20 s of FuzzMerge on the shard merge check
#   make bench        one iteration of every benchmark (smoke)
#   make bench-report solver benchmarks vs baseline -> BENCH_10.json
#   make serve-smoke  end-to-end sramd daemon smoke test
#   make diag-smoke   end-to-end diagnose CLI smoke test
#   make diag-index-smoke  fleet-scale dictionary: index byte-identity, >=20x, streaming
#   make cluster-smoke  3-node cluster batch must be byte-identical to one node
#   make loadgen-smoke  short load-generator run; fails on any dropped request
#   make yield-smoke  yield estimate: local, cluster shards and daemon job
#                     must be byte-identical; /metrics counters checked
#   make faultmap-smoke  1000-map corpus: worker counts, corpus dump,
#                     cluster shards and daemon job must be byte-identical
#   make noise-smoke  EXP-NS flip-probability scan: static-vs-noise
#                     divergence gate on the near-DRV cell; worker counts,
#                     cluster shards and daemon job must be byte-identical
#   make artifacts    rerun every EXPERIMENTS.md command; results/ must
#                     stay byte-identical (git diff --exit-code)

GO ?= go

.PHONY: verify build vet fmt test race fuzz bench bench-report serve-smoke diag-smoke diag-index-smoke cluster-smoke loadgen-smoke yield-smoke faultmap-smoke noise-smoke artifacts

verify: build vet fmt test

# The benchmark module (sramdbench/) is its own module, so the root
# `go build ./...` skips it; it compiles against spice.Stats and
# diag.Stats, so build and vet it here too.
build:
	$(GO) build ./...
	cd sramdbench && $(GO) vet ./... && $(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; \
		echo "$$out"; \
		exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzMerge -fuzztime 20s ./internal/shard

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

bench-report:
	sh scripts/bench-report.sh

serve-smoke:
	sh scripts/serve-smoke.sh

diag-smoke:
	sh scripts/diag-smoke.sh

diag-index-smoke:
	sh scripts/diag-index-smoke.sh

cluster-smoke:
	sh scripts/cluster-smoke.sh

loadgen-smoke:
	sh scripts/loadgen-smoke.sh

yield-smoke:
	sh scripts/yield-smoke.sh

faultmap-smoke:
	sh scripts/faultmap-smoke.sh

noise-smoke:
	sh scripts/noise-smoke.sh

artifacts:
	sh scripts/artifacts.sh
