// Command faultmap generates array-scale correlated fault-map corpora
// of the 4K×64 SRAM and evaluates March-test coverage against them —
// the statistical complement of the one-fault-at-a-time flows
// (internal/faultmap, DESIGN.md §5.12, EXPERIMENTS.md EXP-FM).
//
// Usage:
//
//	faultmap [-maps N] [-seed S] [-vref V] [-defect P]
//	         [-tests "March m-LZ,March C-"] [-random OPS] [-engine march|bist]
//	         [-csv]                      # coverage report (EXP-FM tables)
//	faultmap -dump [...]                 # corpus generation: one map JSON per line
//	faultmap -rails "0.36,0.40,0.44" [...] # coverage vs retention rail
//	faultmap -cluster URL [-shards K] [...] # fan shards out over POST /v1/batch
//
// The flags become one faultmap job spec at the fixed Monte-Carlo
// condition. The coverage report is jobs.Run's bytes, or, with -cluster,
// jobs.Merge's rendering of K shard jobs' partials posted through an
// sramd node or coordinator's batch endpoint; both are byte-identical to
// the daemon's own faultmap job output at any worker count and any shard
// count. -dump and -rails run locally on the same spec's parameters.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sramtest/internal/cli"
	"sramtest/internal/faultmap"
	"sramtest/internal/jobs"
	"sramtest/internal/report"
)

func main() {
	var (
		maps       = flag.Int("maps", faultmap.DefaultMaps, "corpus size (total across all shards)")
		seed       = flag.Int64("seed", faultmap.DefaultSeed, "RNG seed of the derived per-map streams")
		vref       = flag.Float64("vref", faultmap.DefaultVref, "deep-sleep retention rail (V)")
		defect     = flag.Float64("defect", faultmap.DefaultDefect, "per-bit base probability of each static fault class")
		tests      = flag.String("tests", "", "comma-separated March algorithms (empty = whole library)")
		randomOps  = flag.Int("random", 0, "add a dwelling constrained-random stream of N operations (0 = none)")
		engineName = flag.String("engine", faultmap.EngineMarch, `coverage evaluator: "march" (software executor) or "bist" (compiled controller)`)
		csv        = flag.Bool("csv", false, "emit CSV")
		dump       = flag.Bool("dump", false, "emit the corpus itself as map-per-line JSON instead of evaluating")
		rails      = flag.String("rails", "", "comma-separated retention rails (V); render coverage vs rail instead of one report")
		clusterURL = flag.String("cluster", "", "sramd node or coordinator base URL; shard the evaluation over POST /v1/batch")
		shards     = flag.Int("shards", 2, "shard jobs to fan out in -cluster mode")
	)
	applyWorkers := cli.Workers(flag.CommandLine)
	startProfile := cli.Profile(flag.CommandLine)
	flag.Parse()
	applyWorkers()
	defer startProfile()()

	bist := *engineName == faultmap.EngineBIST
	if !bist && *engineName != faultmap.EngineMarch {
		fmt.Fprintf(os.Stderr, "faultmap: unknown -engine %q (have %s, %s)\n", *engineName, faultmap.EngineMarch, faultmap.EngineBIST)
		os.Exit(2)
	}
	var names []string
	if strings.TrimSpace(*tests) != "" {
		for _, name := range strings.Split(*tests, ",") {
			names = append(names, strings.TrimSpace(name))
		}
	}
	spec := jobs.Spec{Kind: jobs.KindFaultMap, CSV: *csv, FaultMap: &jobs.FaultMapSpec{
		Maps: *maps, Seed: *seed, Vref: *vref, Defect: *defect,
		Tests: names, RandomOps: *randomOps, BIST: bist,
	}}
	if !*dump && *rails == "" {
		cli.Run("faultmap", spec, *clusterURL, *shards)
		return
	}

	// The corpus dump and the rail sweep run locally, on the parameters
	// the faultmap job itself would use.
	if *clusterURL != "" {
		fmt.Fprintln(os.Stderr, "faultmap: -dump and -rails run locally; they cannot be combined with -cluster")
		os.Exit(2)
	}
	p, err := jobs.FaultMapParams(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultmap:", err)
		os.Exit(2)
	}
	if *dump {
		err = dumpCorpus(os.Stdout, p)
	} else {
		err = railCurve(p, *rails, *csv)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultmap:", err)
		os.Exit(1)
	}
}

// dumpCorpus streams the corpus as map-per-line JSON — the raw artifact
// for external tooling. The bytes are a pure function of the params:
// regenerating with the same seed reproduces the stream exactly.
func dumpCorpus(w io.Writer, p faultmap.Params) error {
	g, err := faultmap.NewGenerator(p)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i := 0; i < g.Params().Maps; i++ {
		if err := enc.Encode(g.Map(i)); err != nil {
			return err
		}
	}
	return nil
}

// railCurve evaluates the corpus at each retention rail and renders
// coverage vs rail, one row per rail — the EXP-FM sweep showing how the
// dwelling March m-LZ tracks the growing DRF population while dwell-free
// baselines stay blind to it.
func railCurve(p faultmap.Params, rails string, csv bool) error {
	var vs []float64
	for _, s := range strings.Split(rails, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad rail %q: %w", s, err)
		}
		vs = append(vs, v)
	}
	var rows []faultmap.Result
	for _, v := range vs {
		pr := p
		pr.Vref = v
		res, err := faultmap.Estimate(context.Background(), pr)
		if err != nil {
			return fmt.Errorf("rail %g V: %w", v, err)
		}
		rows = append(rows, res)
	}
	return report.RenderAll(os.Stdout, csv, faultmap.RailCurve(rows))
}
