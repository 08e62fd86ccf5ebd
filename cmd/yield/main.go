// Command yield estimates the rare-event retention-failure probability
// P(DRV_DS > Vref) of the 6T cell under local Vth variation — the
// manufacturing-yield question behind the paper's DRV analysis, pushed
// to tail depths (5-6σ) where naive Monte-Carlo would need billions of
// solves (internal/yield, DESIGN.md §5.11).
//
// Usage:
//
//	yield [-n N] [-seed S] [-vref V] [-method is|blockade] [-csv]
//	yield -cluster URL [-shards K]   # fan shards out over POST /v1/batch
//
// The flags become one yield job spec. A local run writes jobs.Run's
// bytes; -cluster sends K shard jobs through an sramd node or
// coordinator's batch endpoint and writes jobs.Merge's rendering of
// their partials. Both are byte-identical to the daemon's own yield job
// output at any worker count and any shard count.
package main

import (
	"flag"

	"sramtest/internal/cli"
	"sramtest/internal/jobs"
	"sramtest/internal/yield"
)

func main() {
	var (
		n          = flag.Int("n", yield.DefaultSamples, "importance/blockade samples")
		seed       = flag.Int64("seed", yield.DefaultSeed, "RNG seed")
		vref       = flag.Float64("vref", yield.DefaultVref, "retention reference voltage (V)")
		method     = flag.String("method", "", `estimator: "is" (default) or "blockade"`)
		csv        = flag.Bool("csv", false, "emit CSV")
		clusterURL = flag.String("cluster", "", "sramd node or coordinator base URL; shard the estimate over POST /v1/batch")
		shards     = flag.Int("shards", 2, "shard jobs to fan out in -cluster mode")
	)
	applyWorkers := cli.Workers(flag.CommandLine)
	startProfile := cli.Profile(flag.CommandLine)
	flag.Parse()
	applyWorkers()
	defer startProfile()()

	cli.Run("yield", jobs.Spec{Kind: jobs.KindYield, CSV: *csv, Yield: &jobs.YieldSpec{
		Samples: *n, Seed: *seed, Vref: *vref, Method: *method,
	}}, *clusterURL, *shards)
}
