package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"sramtest/internal/charac"
	"sramtest/internal/diag"
	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe" // the simulation backend
	"sramtest/internal/exp"
	"sramtest/internal/faultmap"
	"sramtest/internal/march"
	"sramtest/internal/noisescan"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/report"
	"sramtest/internal/testflow"
	"sramtest/internal/yield"
)

// Run executes a job spec and returns the bytes of its product. Each
// sweep CLI is a thin shell that parses its flags into a Spec and
// writes these bytes to stdout, so the CLI and a daemon job agree by
// construction (stderr progress chatter excluded):
//
//	charac    ≡ defectchar [-full] [-defect N] [-cs N] [-criterion C] [-csv]
//	exp       ≡ drv -mc N [-csv]
//	testflow  ≡ flow [-defects ...] [-no-vdd-constraint] [-csv]
//	diag      ≡ diagnose build [-defects ...] [-cs ...] [-decades ...]
//	            [-base-only] [-points-per-decade N] -o -
//	yield     ≡ yield [-n N] [-seed S] [-vref V] [-method M] [-csv]
//	faultmap  ≡ faultmap [-maps N] [-seed S] [-vref V] [-defect P]
//	            [-tests ...] [-random OPS] [-engine E] [-csv]
//	noisescan ≡ noisescan [-cs N] [-points P] [-below V] [-above V]
//	            [-runs R] [-sigma A] [-seed S] [-csv]
//
// A shard job of a sharded kind (yield, faultmap or noisescan with
// Shards > 1) returns the kind's JSON partial instead; Merge turns the
// partials of Split's shard specs back into Run's bytes for the whole
// spec, which is what the CLIs' -cluster mode prints.
//
// This byte-identity holds at any worker count — it is the sweep
// engine's determinism contract, and the reason results can be cached by
// spec alone. ctx cancels the underlying sweeps promptly; a
// sweep.Progress carried by ctx (sweep.ContextWithProgress) is tallied
// while the job runs.
func Run(ctx context.Context, spec Spec) ([]byte, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	// The spec names its backend explicitly ("" ≡ spice after
	// normalization), so a store key always maps to one engine.
	eng, err := engine.Resolve(spec.Engine)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	switch spec.Kind {
	case KindCharac:
		return runCharac(ctx, spec, eng)
	case KindExp:
		return runExp(ctx, spec)
	case KindTestFlow:
		return runTestFlow(ctx, spec, eng)
	case KindDiag:
		return runDiag(ctx, spec, eng)
	case KindYield:
		return runYield(ctx, spec)
	case KindFaultMap:
		return runFaultMap(ctx, spec)
	case KindNoiseScan:
		return runNoiseScan(ctx, spec)
	}
	return nil, fmt.Errorf("%w: unknown kind %q", ErrBadSpec, spec.Kind)
}

// Merge reassembles a whole sharded job from the raw results of its
// shard jobs (the specs Split returns, in order) and renders exactly the
// bytes Run returns for spec itself. A result that is not a partial of
// spec's kind, or that belongs to another job, is an error, and so is
// any set of partials the kind's MergePartials refuses.
func Merge(spec Spec, parts [][]byte) ([]byte, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if shards, _ := spec.shardFields(); shards == nil || *shards != 0 {
		return nil, fmt.Errorf("%w: merge needs a whole yield, faultmap or noisescan spec", ErrBadSpec)
	}
	switch spec.Kind {
	case KindYield:
		y := spec.Yield
		res, err := mergePartials(parts, func(p yield.Partial) bool {
			return p.Cond == mcCondition && p.Method == y.Method && p.Vref == y.Vref &&
				p.Samples == y.Samples && p.Seed == y.Seed
		}, yield.MergePartials)
		if err != nil {
			return nil, err
		}
		return renderYield(spec, res)
	case KindFaultMap:
		p, err := FaultMapParams(spec)
		if err != nil {
			return nil, err
		}
		names, err := p.TestNames()
		if err != nil {
			return nil, err
		}
		res, err := mergePartials(parts, func(part faultmap.Partial) bool {
			return part.Cond == p.Cond && part.Maps == p.Maps && part.Seed == p.Seed &&
				part.Vref == p.Vref && part.Defect == p.Defect &&
				(part.Engine == faultmap.EngineBIST) == spec.FaultMap.BIST && slices.Equal(part.Tests, names)
		}, faultmap.MergePartials)
		if err != nil {
			return nil, err
		}
		return renderFaultMap(spec, res)
	default: // KindNoiseScan
		ns, noise := spec.NoiseScan, spec.Noise.params()
		res, err := mergePartials(parts, func(p noisescan.Partial) bool {
			return p.Cond == mcCondition && p.CaseStudy == ns.CaseStudy && p.Points == ns.Points &&
				p.Below == ns.Below && p.Above == ns.Above && p.Noise == noise
		}, noisescan.MergePartials)
		if err != nil {
			return nil, err
		}
		return renderNoiseScan(spec, res)
	}
}

// mergePartials decodes each raw shard result as the partial P, checks
// that it belongs to the job being merged, and merges the set with the
// kind's merge. Unknown fields are an error, so garbled bytes or another
// kind's partial are refused rather than decoded to zeros.
func mergePartials[P, R any](raw [][]byte, ours func(P) bool, merge func([]P) (R, error)) (R, error) {
	var zero R
	parts := make([]P, len(raw))
	for i, data := range raw {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&parts[i]); err != nil {
			return zero, fmt.Errorf("shard %d: bad partial: %w", i, err)
		}
		if !ours(parts[i]) {
			return zero, fmt.Errorf("shard %d: partial of another job", i)
		}
	}
	return merge(parts)
}

// render renders tables in the spec's text or CSV form, each followed
// by a blank line: the one report layout of the table-rendering kinds.
func render(spec Spec, ts ...*report.Table) ([]byte, error) {
	var buf bytes.Buffer
	if err := report.RenderAll(&buf, spec.CSV, ts...); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func renderYield(spec Spec, res yield.Result) ([]byte, error) {
	return render(spec, yield.Report(res))
}

func renderFaultMap(spec Spec, res faultmap.Result) ([]byte, error) {
	return render(spec, faultmap.Summary(res), faultmap.Coverage(res))
}

func renderNoiseScan(spec Spec, res noisescan.Result) ([]byte, error) {
	return render(spec, noisescan.Summary(res), noisescan.Curve(res))
}

// specCriterion resolves the spec's retention criterion. Like the
// engine, the spec names it explicitly ("" ≡ static after
// normalization), so a store key always maps to one criterion
// regardless of daemon configuration.
func specCriterion(spec Spec) (engine.Criterion, error) {
	switch spec.Criterion {
	case "":
		return engine.Static{}, nil
	case "noise":
		return engine.NewNoiseCriterion(spec.Noise.params()), nil
	}
	return nil, fmt.Errorf("%w: unknown criterion %q", ErrBadSpec, spec.Criterion)
}

// runNoiseScan measures the flip-probability curve at the fixed
// Monte-Carlo condition: the EXP-NS summary and curve tables, or a
// shard job's noisescan.Partial JSON. Like KindExp and KindYield, the
// scan drives the cell netlist directly and ignores the engine field.
func runNoiseScan(ctx context.Context, spec Spec) ([]byte, error) {
	ns := spec.NoiseScan
	p := noisescan.Params{
		CaseStudy: ns.CaseStudy,
		Cond:      mcCondition,
		Points:    ns.Points,
		Below:     ns.Below,
		Above:     ns.Above,
		Noise:     spec.Noise.params(),
		Shards:    ns.Shards,
		Shard:     ns.Shard,
	}
	if ns.Shards > 1 {
		part, err := noisescan.ShardPartial(ctx, p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(part)
	}
	res, err := noisescan.Scan(ctx, p)
	if err != nil {
		return nil, err
	}
	return renderNoiseScan(spec, res)
}

// FaultMapParams converts a faultmap spec to the evaluation parameters
// its job runs with, at the fixed Monte-Carlo condition. Products the
// faultmap CLI computes outside the job (the -dump corpus, the -rails
// sweep) take their parameters from here, so every faultmap product
// reads one set of defaults and one validation.
func FaultMapParams(spec Spec) (faultmap.Params, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return faultmap.Params{}, err
	}
	if spec.Kind != KindFaultMap {
		return faultmap.Params{}, fmt.Errorf("%w: kind %q is not %q", ErrBadSpec, spec.Kind, KindFaultMap)
	}
	f := spec.FaultMap
	p := faultmap.Params{
		Maps:   f.Maps,
		Seed:   f.Seed,
		Cond:   mcCondition,
		Vref:   f.Vref,
		Defect: f.Defect,
		Shards: f.Shards,
		Shard:  f.Shard,
	}
	// A noise criterion tightens the per-bit DRF marginals through the
	// Model seam; static jobs keep the default CellModel, whose solves
	// the shards of one corpus share through the engine's DRV memo.
	if spec.Criterion == "noise" {
		crit, err := specCriterion(spec)
		if err != nil {
			return faultmap.Params{}, err
		}
		p.Model = engine.CriterionModel{Crit: crit}
	}
	for _, name := range f.Tests {
		t, _ := march.ByName(name) // normalization checked every name
		p.Tests = append(p.Tests, t)
	}
	if f.BIST {
		p.Engine = faultmap.EngineBIST
	}
	if f.RandomOps > 0 {
		p.Random = []march.RandomSpec{faultmap.DefaultRandom(f.RandomOps, f.Seed)}
	}
	return p, nil
}

// runFaultMap generates the correlated fault-map corpus and evaluates
// March coverage against it: the EXP-FM summary and coverage tables, or
// a shard job's faultmap.Partial JSON. Like KindExp and KindYield, the
// corpus samples the cell model directly and ignores the engine field
// (the sub-spec's BIST switch selects the coverage evaluator, not the
// simulation backend).
func runFaultMap(ctx context.Context, spec Spec) ([]byte, error) {
	p, err := FaultMapParams(spec)
	if err != nil {
		return nil, err
	}
	if p.Shards > 1 {
		part, err := faultmap.ShardPartial(ctx, p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(part)
	}
	res, err := faultmap.Estimate(ctx, p)
	if err != nil {
		return nil, err
	}
	return renderFaultMap(spec, res)
}

// runYield estimates the rare-event retention yield at the fixed
// Monte-Carlo condition: the EXP-YD table, or a shard job's
// yield.Partial JSON. Like KindExp, the estimate samples the cell model
// directly and ignores the engine field.
func runYield(ctx context.Context, spec Spec) ([]byte, error) {
	y := spec.Yield
	est, err := yield.New(y.Method)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	p := yield.Params{
		Cond:    mcCondition,
		Vref:    y.Vref,
		Samples: y.Samples,
		Seed:    y.Seed,
		Shards:  y.Shards,
		Shard:   y.Shard,
	}
	// A noise criterion tightens the failure boundary through the Model
	// seam; the static criterion keeps the default memo-free CellModel,
	// so static jobs stay byte-identical to pre-criterion runs.
	if spec.Criterion == "noise" {
		crit, err := specCriterion(spec)
		if err != nil {
			return nil, err
		}
		p.Model = engine.CriterionModel{Crit: crit}
	}
	if y.Shards > 1 {
		part, err := est.Partial(ctx, p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(part)
	}
	res, err := est.Estimate(ctx, p)
	if err != nil {
		return nil, err
	}
	return renderYield(spec, res)
}

// runDiag builds the fault dictionary; the job bytes are the versioned
// JSON artifact, identical to `diagnose build -o -`.
func runDiag(ctx context.Context, spec Spec, eng engine.Engine) ([]byte, error) {
	opt := diag.DefaultOptions()
	opt.Engine = eng
	opt.Defects = toDefects(spec.Diag.Defects)
	all := process.Table1CaseStudies()
	css := make([]process.CaseStudy, 0, 2*len(spec.Diag.CaseStudies))
	for _, n := range spec.Diag.CaseStudies {
		css = append(css, all[2*(n-1)], all[2*(n-1)+1])
	}
	opt.CaseStudies = css
	opt.Decades = spec.Diag.Decades
	opt.BaseOnly = spec.Diag.BaseOnly
	opt.PointsPerDecade = spec.Diag.PointsPerDecade
	opt.Ctx = ctx
	d, err := diag.Build(opt)
	if err != nil {
		return nil, err
	}
	return d.Encode()
}

func runCharac(ctx context.Context, spec Spec, eng engine.Engine) ([]byte, error) {
	crit, err := specCriterion(spec)
	if err != nil {
		return nil, err
	}
	opt := charac.DefaultOptions()
	opt.Engine = eng
	opt.Criterion = crit
	if !spec.Charac.Full {
		opt.Conditions = charac.ReducedGrid()
	}
	opt.Ctx = ctx

	defects := toDefects(spec.Charac.Defects)
	all := charac.Table2CaseStudies()
	css := make([]process.CaseStudy, 0, len(spec.Charac.CaseStudies))
	for _, n := range spec.Charac.CaseStudies {
		css = append(css, all[n-1])
	}

	results, err := charac.CharacterizeAll(defects, css, opt)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := exp.Table2Report(results).Render(&buf, spec.CSV); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// mcCondition is cmd/drv's fixed Monte-Carlo condition.
var mcCondition = process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}

func runExp(ctx context.Context, spec Spec) ([]byte, error) {
	res, err := exp.MonteCarloCtx(ctx, mcCondition, spec.Exp.Samples, spec.Exp.Seed, 0)
	if err != nil {
		return nil, err
	}
	return render(spec, exp.MonteCarloReport(res, exp.NewWorstDRVForTest(mcCondition)))
}

func runTestFlow(ctx context.Context, spec Spec, eng engine.Engine) ([]byte, error) {
	mopt := testflow.DefaultMeasureOptions()
	mopt.Engine = eng
	mopt.Defects = toDefects(spec.TestFlow.Defects)
	mopt.Ctx = ctx

	sens, err := testflow.Measure(mopt)
	if err != nil {
		return nil, err
	}
	cond := process.Condition{Corner: mopt.Corner, VDD: 1.1, TempC: mopt.TempC}
	worst := eng.DRV1(mopt.CS.Variation, cond)
	oopt := testflow.DefaultOptimizeOptions(worst)
	oopt.RequireAllVDD = !spec.TestFlow.NoVDDConstraint
	flow := testflow.Optimize(sens, oopt)

	var buf bytes.Buffer
	res := exp.Table3Result{WorstDRV: worst, Sensitivities: sens, Flow: flow}
	if err := report.RenderAll(&buf, spec.CSV, exp.Table3Report(res)); err != nil {
		return nil, err
	}
	if len(flow.Uncoverable) > 0 {
		fmt.Fprintf(&buf, "defects undetectable at every eligible condition: %v\n", flow.Uncoverable)
	}
	// The per-condition sensitivity matrix is text-only.
	if !spec.CSV {
		if err := report.RenderAll(&buf, false, exp.SensitivityReport(sens, mopt.Defects)); err != nil {
			return nil, err
		}
	}
	if err := exp.WriteTestTime(&buf, exp.TestTime(flow)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func toDefects(ns []int) []regulator.Defect {
	out := make([]regulator.Defect, len(ns))
	for i, n := range ns {
		out[i] = regulator.Defect(n)
	}
	return out
}
