package jobs

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fmt"

	"sramtest/internal/charac"
	"sramtest/internal/exp"
	"sramtest/internal/faultmap"
	"sramtest/internal/march"
	"sramtest/internal/noisescan"
	"sramtest/internal/regulator"
	"sramtest/internal/sweep"
	"sramtest/internal/yield"
)

// cliCharacBytes spells Table II's bytes out literally, as the
// reference the runner is checked against: the per-(defect, case study)
// CharacterizeDefect loop feeding exp.Table2Report. The job runner (and
// so cmd/defectchar, a shell over it) goes through CharacterizeAll
// instead; both must emit identical bytes.
func cliCharacBytes(t *testing.T, defects []regulator.Defect, cs []int, csv bool) []byte {
	t.Helper()
	opt := charac.DefaultOptions()
	opt.Conditions = charac.ReducedGrid()
	all := charac.Table2CaseStudies()
	var results []charac.Result
	for _, d := range defects {
		for _, n := range cs {
			res, err := charac.CharacterizeDefect(d, all[n-1], opt)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	var buf bytes.Buffer
	tab := exp.Table2Report(results)
	var err error
	if csv {
		err = tab.WriteCSV(&buf)
	} else {
		err = tab.Write(&buf)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCharacJobMatchesCLIBytes(t *testing.T) {
	spec := Spec{Kind: KindCharac, Charac: &CharacSpec{Defects: []int{16, 19}, CaseStudies: []int{1}}}
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := cliCharacBytes(t, []regulator.Defect{16, 19}, []int{1}, false)
	if !bytes.Equal(got, want) {
		t.Errorf("job bytes differ from the CLI path:\n--- job ---\n%s\n--- cli ---\n%s", got, want)
	}
	if len(got) == 0 || !bytes.Contains(got, []byte("Table II")) {
		t.Errorf("implausible result:\n%s", got)
	}

	// CSV rendering matches too.
	spec.CSV = true
	gotCSV, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, cliCharacBytes(t, []regulator.Defect{16, 19}, []int{1}, true)) {
		t.Error("CSV job bytes differ from the CLI path")
	}
}

// TestRunWorkerInvariance is the serving-layer worker-invariance gate:
// every job kind must produce identical bytes at any worker count, with
// the memo cache cold each time.
func TestRunWorkerInvariance(t *testing.T) {
	defer sweep.SetDefaultWorkers(0)
	specs := map[string]Spec{
		"charac":   {Kind: KindCharac, Charac: &CharacSpec{Defects: []int{16}, CaseStudies: []int{1}}},
		"exp":      {Kind: KindExp, Exp: &ExpSpec{Samples: 96, Seed: 99}},
		"testflow": {Kind: KindTestFlow, TestFlow: &TestFlowSpec{Defects: []int{16}}},
		"yield":    {Kind: KindYield, Yield: &YieldSpec{Samples: 64, Vref: 0.34}},
		"faultmap": {Kind: KindFaultMap, FaultMap: &FaultMapSpec{
			Maps: 8, Tests: []string{"March m-LZ", "March C-"},
		}},
		"noisescan": {Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{
			CaseStudy: 5, Points: 5,
		}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			var ref []byte
			for _, workers := range []int{1, 3} {
				charac.ResetCache()
				sweep.SetDefaultWorkers(workers)
				got, err := Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if ref == nil {
					ref = got
					continue
				}
				if !bytes.Equal(ref, got) {
					t.Errorf("workers=%d: bytes differ from workers=1 run", workers)
				}
			}
		})
	}
}

// TestYieldJobMatchesCLIBytes pins the yield job (and so cmd/yield) to
// its literal reference spelling: estimator → Report table → trailing
// blank line.
// Byte identity here is what lets the daemon serve cached yield results
// interchangeably with local CLI runs.
func TestYieldJobMatchesCLIBytes(t *testing.T) {
	spec := Spec{Kind: KindYield, Yield: &YieldSpec{Samples: 64, Vref: 0.34}}
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// The reference path, spelled out literally.
	est, err := yield.New("")
	if err != nil {
		t.Fatal(err)
	}
	res, err := est.Estimate(context.Background(), yield.Params{
		Cond: mcCondition, Vref: 0.34, Samples: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := yield.Report(res).Write(&want); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&want)
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("job bytes differ from the CLI path:\n--- job ---\n%s\n--- cli ---\n%s", got, want.Bytes())
	}
	if !bytes.Contains(got, []byte("EXP-YD")) {
		t.Errorf("implausible result:\n%s", got)
	}
}

// checkMerge is the cluster fan-out shape end to end at the jobs layer:
// spec's shard jobs emit partials, and Merge renders them into exactly
// Run's bytes for the whole spec, as text and as CSV.
func checkMerge(t *testing.T, spec Spec, shards int) {
	t.Helper()
	_, parts := shardResults(t, spec, shards)
	for _, csv := range []bool{false, true} {
		spec.CSV = csv
		whole, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Merge(spec, parts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, merged) {
			t.Errorf("csv=%v: merged shard report differs from the whole job:\n--- whole ---\n%s\n--- merged ---\n%s", csv, whole, merged)
		}
	}
}

func TestYieldShardJobsMerge(t *testing.T) {
	checkMerge(t, Spec{Kind: KindYield, Yield: &YieldSpec{Samples: 64, Vref: 0.34}}, 2)
}

// TestFaultMapJobMatchesCLIBytes pins the faultmap job (and so
// cmd/faultmap) to its literal reference spelling: Estimate → Summary
// table → blank line → Coverage table → blank line, at the fixed
// Monte-Carlo condition.
func TestFaultMapJobMatchesCLIBytes(t *testing.T) {
	spec := Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{
		Maps: 8, Tests: []string{"March m-LZ", "March C-"}, RandomOps: 2000,
	}}
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// The reference path, spelled out literally.
	mlz, _ := march.ByName("March m-LZ")
	cm, _ := march.ByName("March C-")
	res, err := faultmap.Estimate(context.Background(), faultmap.Params{
		Maps:   8,
		Seed:   2013,
		Cond:   mcCondition,
		Vref:   faultmap.DefaultVref,
		Defect: faultmap.DefaultDefect,
		Tests:  []march.Test{mlz, cm},
		Random: []march.RandomSpec{faultmap.DefaultRandom(2000, 2013)},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := faultmap.Summary(res).Write(&want); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&want)
	if err := faultmap.Coverage(res).Write(&want); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&want)
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("job bytes differ from the CLI path:\n--- job ---\n%s\n--- cli ---\n%s", got, want.Bytes())
	}
	if !bytes.Contains(got, []byte("EXP-FM")) || !bytes.Contains(got, []byte("random(2000)")) {
		t.Errorf("implausible result:\n%s", got)
	}
}

func TestFaultMapShardJobsMerge(t *testing.T) {
	checkMerge(t, Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{
		Maps: 16, Tests: []string{"March m-LZ", "March C-"},
	}}, 2)
}

// TestNoiseScanJobMatchesCLIBytes pins the noisescan job (and so
// cmd/noisescan) to its literal reference spelling: Scan → Summary
// table → blank line → Curve table → blank line, at the fixed
// Monte-Carlo condition.
func TestNoiseScanJobMatchesCLIBytes(t *testing.T) {
	spec := Spec{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{CaseStudy: 5, Points: 5}}
	got, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	// The reference path, spelled out literally.
	res, err := noisescan.Scan(context.Background(), noisescan.Params{CaseStudy: 5, Points: 5})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := noisescan.Summary(res).Write(&want); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&want)
	if err := noisescan.Curve(res).Write(&want); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&want)
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("job bytes differ from the CLI path:\n--- job ---\n%s\n--- cli ---\n%s", got, want.Bytes())
	}
	if !bytes.Contains(got, []byte("EXP-NS")) {
		t.Errorf("implausible result:\n%s", got)
	}
}

func TestNoiseScanShardJobsMerge(t *testing.T) {
	checkMerge(t, Spec{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{CaseStudy: 5, Points: 5}}, 2)
}

// shardResults runs spec's k shard jobs and returns their raw results.
func shardResults(t *testing.T, spec Spec, k int) ([]Spec, [][]byte) {
	t.Helper()
	specs, err := spec.Split(k)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]byte, len(specs))
	for i, sh := range specs {
		if parts[i], err = Run(context.Background(), sh); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
	}
	return specs, parts
}

// TestMergeRejectsForeignPartials: Merge refuses results that are not
// partials of the spec being merged, and specs it cannot merge.
func TestMergeRejectsForeignPartials(t *testing.T) {
	spec := Spec{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{Points: 4}}
	specs, parts := shardResults(t, spec, 2)
	if _, err := Merge(spec, parts); err != nil {
		t.Fatalf("own partials: %v", err)
	}
	fmSpec := Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Maps: 2, Tests: []string{"MATS+"}}}
	_, fmParts := shardResults(t, fmSpec, 2)
	if _, err := Merge(fmSpec, fmParts); err != nil {
		t.Fatalf("own faultmap partials: %v", err)
	}
	for _, c := range []struct {
		name    string
		spec    Spec
		parts   [][]byte
		wantErr string
	}{
		{"garbled", spec, [][]byte{parts[0], []byte("| table text |")}, "shard 1: bad partial"},
		{"another kind", Spec{Kind: KindFaultMap}, parts, "shard 0: bad partial"},
		{"another job", Spec{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{Points: 5}}, parts, "shard 0: partial of another job"},
		{"other tests", Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Maps: 2, Tests: []string{"March C-"}}}, fmParts, "shard 0: partial of another job"},
		{"other evaluator", Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Maps: 2, Tests: []string{"MATS+"}, BIST: true}}, fmParts, "shard 0: partial of another job"},
		{"a shard spec", specs[0], parts, "whole"},
		{"unsharded kind", Spec{Kind: KindExp, Exp: &ExpSpec{Samples: 8}}, parts, "whole"},
		{"missing shard", spec, parts[:1], "1 partials for 2 shards"},
	} {
		if _, err := Merge(c.spec, c.parts); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestCriterionChangesCharacJob: the criterion field must reach the
// characterization engine — a noise-criterion job may not emit the same
// bytes as the static default for a case study whose retention limit the
// noise ensemble tightens.
func TestCriterionChangesCharacJob(t *testing.T) {
	if testing.Short() {
		t.Skip("noise-criterion characterization is slow")
	}
	static := Spec{Kind: KindCharac, Charac: &CharacSpec{Defects: []int{16}, CaseStudies: []int{5}}}
	noise := Spec{Kind: KindCharac, Criterion: "noise",
		Charac: &CharacSpec{Defects: []int{16}, CaseStudies: []int{5}}}
	a, err := Run(context.Background(), static)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), noise)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Error("noise-criterion job emitted the static job's bytes — the criterion never reached the engine")
	}
}

func TestRunCanceledContextFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := Run(ctx, Spec{Kind: KindCharac})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("canceled job took %v to return", d)
	}
}

func TestRunReportsSweepProgress(t *testing.T) {
	var p sweep.Progress
	ctx := sweep.ContextWithProgress(context.Background(), &p)
	if _, err := Run(ctx, Spec{Kind: KindExp, Exp: &ExpSpec{Samples: 64}}); err != nil {
		t.Fatal(err)
	}
	done, total := p.Snapshot()
	if total == 0 || done != total {
		t.Errorf("progress = %d/%d, want a completed nonzero tally", done, total)
	}
}
