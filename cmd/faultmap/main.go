// Command faultmap generates array-scale correlated fault-map corpora
// of the 4K×64 SRAM and evaluates March-test coverage against them —
// the statistical complement of the one-fault-at-a-time flows
// (internal/faultmap, DESIGN.md §5.12, EXPERIMENTS.md EXP-FM).
//
// Usage:
//
//	faultmap [-maps N] [-seed S] [-vref V] [-vdd V] [-defect P]
//	         [-tests "March m-LZ,March C-"] [-random OPS] [-engine march|bist]
//	         [-csv]                      # coverage report (EXP-FM tables)
//	faultmap -dump [...]                 # corpus generation: one map JSON per line
//	faultmap -rails "0.36,0.40,0.44" [...] # coverage vs retention rail
//	faultmap -cluster URL [-shards K] [...] # fan shards out over POST /v1/batch
//
// Local runs evaluate in-process on the sweep engine; -cluster sends K
// shard jobs through an sramd node or coordinator's batch endpoint,
// merges the returned partials with faultmap.MergePartials, and renders
// the same tables. Both paths are byte-identical to the daemon's own
// faultmap job output at any worker count and any shard count.
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
	"sramtest/internal/cluster"
	"sramtest/internal/faultmap"
	"sramtest/internal/jobs"
	"sramtest/internal/march"
	"sramtest/internal/process"
	"sramtest/internal/report"
)

func main() {
	var (
		maps       = flag.Int("maps", faultmap.DefaultMaps, "corpus size (total across all shards)")
		seed       = flag.Int64("seed", faultmap.DefaultSeed, "RNG seed of the derived per-map streams")
		vref       = flag.Float64("vref", faultmap.DefaultVref, "deep-sleep retention rail (V)")
		vdd        = flag.Float64("vdd", 1.1, "supply of the generation condition (V); static defect rates accelerate below nominal")
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

	p, err := params(*maps, *seed, *vref, *vdd, *defect, *tests, *randomOps, *engineName)
	if err != nil {
		fail(err)
	}
	switch {
	case *dump:
		if *clusterURL != "" {
			fail(fmt.Errorf("-dump generates locally; it cannot be combined with -cluster"))
		}
		err = dumpCorpus(os.Stdout, p)
	case *rails != "":
		if *clusterURL != "" {
			fail(fmt.Errorf("-rails sweeps locally; it cannot be combined with -cluster"))
		}
		err = railCurve(p, *rails, *csv)
	default:
		var res faultmap.Result
		if *clusterURL != "" {
			res, err = clusterEstimate(*clusterURL, *shards, p, *vdd)
		} else {
			res, err = faultmap.Estimate(context.Background(), p)
		}
		if err == nil {
			emit(faultmap.Summary(res), *csv)
			emit(faultmap.Coverage(res), *csv)
		}
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "faultmap:", err)
	os.Exit(1)
}

// params assembles the evaluation parameters at the fixed Monte-Carlo
// condition (FS, 125 °C) the daemon's faultmap job also pins; only the
// supply is a knob, for voltage-acceleration experiments.
func params(maps int, seed int64, vref, vdd, defect float64, tests string, randomOps int, engineName string) (faultmap.Params, error) {
	p := faultmap.Params{
		Maps:   maps,
		Seed:   seed,
		Cond:   process.Condition{Corner: process.FS, VDD: vdd, TempC: 125},
		Vref:   vref,
		Defect: defect,
		Engine: engineName,
	}
	ts, err := parseTests(tests)
	if err != nil {
		return p, err
	}
	p.Tests = ts
	if randomOps > 0 {
		p.Random = []march.RandomSpec{faultmap.DefaultRandom(randomOps, seed)}
	}
	return p, nil
}

// parseTests resolves a comma-separated algorithm selection against the
// March library; empty selects the whole library (nil → library default).
func parseTests(s string) ([]march.Test, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []march.Test
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		t, ok := march.ByName(name)
		if !ok {
			var have []string
			for _, lt := range march.Library() {
				have = append(have, lt.Name)
			}
			return nil, fmt.Errorf("unknown March test %q (have %s)", name, strings.Join(have, ", "))
		}
		out = append(out, t)
	}
	return out, nil
}

func emit(t *report.Table, csv bool) {
	var err error
	if csv {
		err = t.WriteCSV(os.Stdout)
	} else {
		err = t.Write(os.Stdout)
	}
	if err != nil {
		fail(err)
	}
	fmt.Println()
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
	emit(faultmap.RailCurve(rows), csv)
	return nil
}

// clusterEstimate fans K shard jobs out through the batch endpoint and
// merges the partials. Shard s owns the map chunks c ≡ s (mod K), so the
// merged result is byte-identical to a local single-shard run with the
// same parameters — the cluster only changes where the evaluation runs.
func clusterEstimate(target string, shards int, p faultmap.Params, vdd float64) (faultmap.Result, error) {
	if shards < 2 {
		return faultmap.Result{}, fmt.Errorf("-shards must be >= 2 in cluster mode (one shard is a plain job)")
	}
	if vdd != 1.1 {
		return faultmap.Result{}, fmt.Errorf("cluster jobs pin the fixed Monte-Carlo condition; -vdd applies to local runs only")
	}
	var names []string
	for _, t := range p.Tests {
		names = append(names, t.Name)
	}
	randomOps := 0
	if len(p.Random) > 0 {
		randomOps = p.Random[0].Ops
	}
	specs := make([]jobs.Spec, shards)
	for s := range specs {
		specs[s] = jobs.Spec{Kind: jobs.KindFaultMap, FaultMap: &jobs.FaultMapSpec{
			Maps: p.Maps, Seed: p.Seed, Vref: p.Vref, Defect: p.Defect,
			Tests: names, RandomOps: randomOps, BIST: p.Engine == faultmap.EngineBIST,
			Shards: shards, Shard: s,
		}}
	}
	parts, err := cluster.FanOut[faultmap.Partial](context.Background(), target, specs)
	if err != nil {
		return faultmap.Result{}, err
	}
	return faultmap.MergePartials(parts)
}
