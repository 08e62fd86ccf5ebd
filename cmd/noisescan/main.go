// Command noisescan measures the flip-probability curve P(flip) versus
// the deep-sleep rail V_DD_DS under the accelerated stochastic noise
// ensemble — the EXP-NS experiment behind the dynamic retention
// criterion (internal/noisescan, DESIGN.md §5.14). The scan brackets the
// static DRV_DS of a Table I case study and reports how far thermal-like
// disturbances tighten the retention threshold beyond the paper's static
// criterion.
//
// Usage:
//
//	noisescan [-cs N] [-points P] [-runs R] [-sigma A] [-seed S] [-csv]
//	noisescan -cluster URL [-shards K]   # fan shards out over POST /v1/batch
//
// The flags become one noisescan job spec. A local run writes
// jobs.Run's bytes; -cluster sends K shard jobs through an sramd node or
// coordinator's batch endpoint and writes jobs.Merge's rendering of
// their partials. Both are byte-identical to the daemon's own noisescan
// job output at any worker count and any shard count.
package main

import (
	"flag"

	"sramtest/internal/cli"
	"sramtest/internal/jobs"
	"sramtest/internal/noisescan"
)

func main() {
	var (
		cs         = flag.Int("cs", noisescan.DefaultCaseStudy, "Table I case study (1..5)")
		points     = flag.Int("points", noisescan.DefaultPoints, "rail points on the scan grid")
		below      = flag.Float64("below", noisescan.DefaultBelow, "scan start below the static DRV (V)")
		above      = flag.Float64("above", noisescan.DefaultAbove, "scan end above the static DRV (V)")
		runs       = flag.Int("runs", 0, "ensemble members per rail point (0 = engine default)")
		sigma      = flag.Float64("sigma", 0, "accelerated noise amplitude (A, 0 = engine default)")
		seed       = flag.Int64("seed", 0, "RNG seed (0 = engine default)")
		csv        = flag.Bool("csv", false, "emit CSV")
		clusterURL = flag.String("cluster", "", "sramd node or coordinator base URL; shard the scan over POST /v1/batch")
		shards     = flag.Int("shards", 2, "shard jobs to fan out in -cluster mode")
	)
	applyWorkers := cli.Workers(flag.CommandLine)
	startProfile := cli.Profile(flag.CommandLine)
	flag.Parse()
	applyWorkers()
	defer startProfile()()

	// Zero ensemble parameters select the engine defaults.
	cli.Run("noisescan", jobs.Spec{
		Kind: jobs.KindNoiseScan, CSV: *csv,
		NoiseScan: &jobs.NoiseScanSpec{CaseStudy: *cs, Points: *points, Below: *below, Above: *above},
		Noise:     &jobs.NoiseSpec{Runs: *runs, Sigma: *sigma, Seed: *seed},
	}, *clusterURL, *shards)
}
