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
// Local runs scan in-process on the sweep engine; -cluster sends K shard
// jobs through an sramd node or coordinator's batch endpoint, merges the
// returned partials with noisescan.MergePartials, and renders the same
// tables. Both paths are byte-identical to the daemon's own noisescan
// job output at any worker count and any shard count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sramtest/internal/cli"
	"sramtest/internal/cluster"
	"sramtest/internal/engine"
	"sramtest/internal/jobs"
	"sramtest/internal/noisescan"
	"sramtest/internal/report"
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

	noise := engine.DefaultNoiseParams()
	if *runs > 0 {
		noise.Runs = *runs
	}
	if *sigma > 0 {
		noise.Sigma = *sigma
	}
	if *seed != 0 {
		noise.Seed = *seed
	}
	p := noisescan.Params{
		CaseStudy: *cs,
		Points:    *points,
		Below:     *below,
		Above:     *above,
		Noise:     noise,
	}

	var (
		res noisescan.Result
		err error
	)
	if *clusterURL != "" {
		res, err = clusterScan(*clusterURL, *shards, p)
	} else {
		res, err = noisescan.Scan(context.Background(), p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "noisescan:", err)
		os.Exit(1)
	}
	emit(noisescan.Summary(res), *csv)
	emit(noisescan.Curve(res), *csv)
}

func emit(t *report.Table, csv bool) {
	var err error
	if csv {
		err = t.WriteCSV(os.Stdout)
	} else {
		err = t.Write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "noisescan:", err)
		os.Exit(1)
	}
	fmt.Println()
}

// clusterScan fans K shard jobs out through the batch endpoint and
// merges the partials. Shard s owns the rail points i ≡ s (mod K), and
// every point's ensemble draws the same reserved criterion streams, so
// the merged result is byte-identical to a local single-shard run with
// the same parameters — the cluster only changes where the solves run.
func clusterScan(target string, shards int, p noisescan.Params) (noisescan.Result, error) {
	if shards < 2 {
		return noisescan.Result{}, fmt.Errorf("-shards must be >= 2 in cluster mode (one shard is a plain job)")
	}
	specs := make([]jobs.Spec, shards)
	for s := range specs {
		specs[s] = jobs.Spec{
			Kind: jobs.KindNoiseScan,
			NoiseScan: &jobs.NoiseScanSpec{
				CaseStudy: p.CaseStudy, Points: p.Points,
				Below: p.Below, Above: p.Above,
				Shards: shards, Shard: s,
			},
			Noise: &jobs.NoiseSpec{
				Runs: p.Noise.Runs, Sigma: p.Noise.Sigma,
				SlotDt: p.Noise.SlotDt, Window: p.Noise.Window,
				PFail: p.Noise.PFail, Tol: p.Noise.Tol,
				MaxTighten: p.Noise.MaxTighten, Seed: p.Noise.Seed,
			},
		}
	}
	parts, err := cluster.FanOut[noisescan.Partial](context.Background(), target, specs)
	if err != nil {
		return noisescan.Result{}, err
	}
	return noisescan.MergePartials(parts)
}
