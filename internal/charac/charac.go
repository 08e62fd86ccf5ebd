// Package charac implements the defect-characterization methodology of the
// paper's Section IV: for each resistive-open defect in the voltage
// regulator and each case study of core-cell Vth variation, it searches
// the minimal defect resistance that causes a data retention fault in
// deep-sleep mode, sweeping PVT conditions and reporting the worst (i.e.
// smallest-resistance) condition — the content of Table II.
//
// The DRF criterion chains all the substrates exactly as the paper's
// silicon does (DESIGN.md §5.4): the regulator (with the array's leakage
// load and the extra crowbar current of flipping cells) sets V_DD_CC; the
// variation-affected cell's DRV and flip dynamics decide whether a 1 ms
// DS dwell loses the stored datum. Since the engine seam (§5.9) the
// criterion is evaluated through an engine.Eval, whose one backend is
// the exact SPICE solver (engine/spicebe).
package charac

import (
	"context"
	"fmt"
	"math"

	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe" // default backend
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/spice"
	"sramtest/internal/sweep"
)

// Options tunes a characterization run.
type Options struct {
	// Conditions to sweep; defaults to the full 45-point paper grid.
	Conditions []process.Condition
	// Dwell is the DS residence time of the test (paper: 1 ms).
	Dwell float64
	// ResTol is the relative precision of the minimal-resistance search
	// (hi/lo ratio at termination).
	ResTol float64
	// Level overrides the reference-level selection; nil uses the
	// paper's per-VDD choice (regulator.SelectFor). The test-flow
	// optimizer uses this to probe all 12 (VDD, Vref) combinations.
	Level *regulator.VrefLevel
	// Workers bounds the sweep-engine concurrency of the run; 0 uses
	// the process default (sweep.DefaultWorkers). It never affects the
	// results, only the wall-clock time.
	Workers int
	// Ctx, when non-nil, cancels the run: conditions not yet searched
	// when Ctx is done are skipped promptly and the sweep returns
	// Ctx.Err(). A sweep.Progress carried by the context
	// (sweep.ContextWithProgress) is tallied by the engine. Like
	// Workers, Ctx never affects the values of results that complete.
	Ctx context.Context
	// ColdStart disables warm-start continuation in the underlying solver
	// (every operating point is solved from zero). It exists for the
	// warm-start equivalence tests and for debugging suspicious
	// convergence; production runs leave it false.
	ColdStart bool
	// Engine selects the simulation backend; nil uses the exact SPICE
	// backend (engine.Default). The backend's name is part of the point
	// memo key, so runs with a substituted engine never share points.
	Engine engine.Engine
	// Criterion selects the retention-decision criterion; nil means
	// Static, the paper's criterion. Like the engine, the criterion's
	// name is part of the point memo key: a noise-tightened minimal
	// resistance must never masquerade as a static one.
	Criterion engine.Criterion
}

// ctx returns the options' context, defaulting to context.Background.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// engine returns the options' backend, defaulting to the exact one.
func (o Options) engine() engine.Engine { return engine.Pick(o.Engine) }

// criterion returns the options' retention criterion, defaulting to
// Static.
func (o Options) criterion() engine.Criterion { return engine.PickCriterion(o.Criterion) }

// level returns the reference level for a condition under the options'
// override.
func (o Options) level(cond process.Condition) regulator.VrefLevel {
	if o.Level != nil {
		return *o.Level
	}
	return regulator.SelectFor(cond.VDD)
}

// newEval prepares the backend's per-condition evaluation context.
func newEval(cond process.Condition, opt Options) (engine.Eval, error) {
	sopt := spice.DefaultOptions()
	sopt.ColdStart = opt.ColdStart
	return opt.engine().Eval(cond, opt.level(cond), sopt, opt.criterion())
}

// DefaultOptions mirrors the paper's experimental setup.
func DefaultOptions() Options {
	return Options{
		Conditions: process.Grid(),
		Dwell:      1e-3,
		ResTol:     1.05,
	}
}

// ReducedGrid returns the PVT sub-grid that empirically contains every
// per-defect minimum (the hot and cold corner extremes); it cuts the
// characterization cost ~2.5× and is used by the benchmarks.
func ReducedGrid() []process.Condition {
	var out []process.Condition
	for _, corner := range []process.Corner{process.FS, process.SF, process.FF} {
		for _, vdd := range process.Supplies() {
			for _, temp := range []float64{-30, 125} {
				out = append(out, process.Condition{Corner: corner, VDD: vdd, TempC: temp})
			}
		}
	}
	return out
}

// CondResult is the outcome of one (defect, case study, condition) search.
type CondResult struct {
	Cond   process.Condition
	MinRes float64 // Ω; math.Inf(1) when no resistance ≤ 500 MΩ causes a DRF
}

// Open reports whether even a full open line causes no DRF here.
func (c CondResult) Open() bool { return math.IsInf(c.MinRes, 1) }

// Result is one Table II cell: the minimal DRF-causing resistance of a
// defect for a case study, minimized over PVT.
type Result struct {
	Defect  regulator.Defect
	CS      process.CaseStudy
	MinRes  float64           // Ω; +Inf = "> 500M"
	Cond    process.Condition // the PVT condition attaining the minimum
	Details []CondResult      // per-condition results, in sweep order
}

// Open reports whether the defect never causes a DRF for this case study.
func (r Result) Open() bool { return math.IsInf(r.MinRes, 1) }

// String renders the result in Table II style.
func (r Result) String() string {
	if r.Open() {
		return fmt.Sprintf("%s/%s: > 500M", r.Defect, r.CS.Name)
	}
	return fmt.Sprintf("%s/%s: %s (%s)", r.Defect, r.CS.Name, spice.FormatValue(r.MinRes), r.Cond)
}

// FaultFreeVreg returns the fault-free DS rail for a condition under the
// options' reference-level choice (used by the flow optimizer to check
// which test conditions would overkill fault-free devices). Externally
// reported, so every backend answers it exactly.
func FaultFreeVreg(cond process.Condition, opt Options) (float64, error) {
	ev, err := newEval(cond, opt)
	if err != nil {
		return 0, err
	}
	defer ev.Release()
	return ev.FaultFreeRail()
}

// MinResistanceAt finds the minimal resistance of defect d that causes a
// DRF for case study cs at one PVT condition. The point is memoized, so
// repeated probes (the flow optimizer, mixed CLI runs) are free.
func MinResistanceAt(d regulator.Defect, cs process.CaseStudy, cond process.Condition, opt Options) (CondResult, error) {
	var ev engine.Eval
	env := func() (engine.Eval, error) {
		if ev == nil {
			var err error
			if ev, err = newEval(cond, opt); err != nil {
				return nil, err
			}
		}
		return ev, nil
	}
	defer func() {
		if ev != nil {
			ev.Release()
		}
	}()
	r, err := minResistanceCached(cond, env, d, cs, opt)
	return CondResult{Cond: cond, MinRes: r}, err
}

// minResistance is the search core, by bisection on log-resistance
// (the DRF predicate is monotone in the defect resistance — tested in the
// regulator package). Returns +Inf when the full open line causes no DRF.
func minResistance(ev engine.Eval, cond process.Condition, d regulator.Defect, cs process.CaseStudy, opt Options) (float64, error) {
	// Fault-free sanity: the healthy regulator must retain. Under the
	// static criterion a fault-free DRF can only mean the calibration is
	// broken. A dynamic criterion can legitimately fail a fault-free
	// cell at a margin-poor condition (the effective DRV tightens past
	// the healthy rail); there the minimal DRF-causing resistance is
	// zero — the condition itself cannot retain — not an error.
	if bad, err := ev.Lost(d, 0, cs, opt.Dwell); err != nil {
		return 0, err
	} else if bad {
		if opt.criterion().MaxTighten() > 0 {
			return 0, nil
		}
		return 0, fmt.Errorf("charac: fault-free DRF at %s for %s — calibration broken", cond, cs.Name)
	}

	lo := regulator.DefaultParams().WireRes // retains here
	hi := regulator.OpenResistance
	if bad, err := ev.Lost(d, hi, cs, opt.Dwell); err != nil {
		return 0, err
	} else if !bad {
		return math.Inf(1), nil // "> 500M"
	}

	for hi/lo > opt.ResTol {
		mid := math.Sqrt(lo * hi)
		bad, err := ev.Lost(d, mid, cs, opt.Dwell)
		if err != nil {
			return 0, err
		}
		if bad {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// pointKey identifies one characterization point for the memo cache:
// the (defect, case study, condition) triple plus the option fields that
// influence the search result. Worker counts and grid composition are
// deliberately excluded — they cannot change a point's value. The engine
// name IS included (satellite of the seam): an approximate backend's
// points must never masquerade as exact ones.
type pointKey struct {
	defect regulator.Defect
	cs     process.CaseStudy
	cond   process.Condition
	dwell  float64
	resTol float64
	level  regulator.VrefLevel // -1 = per-VDD default (regulator.SelectFor)
	cold   bool                // ColdStart ablation runs are cached separately
	eng    string              // backend name, calibration-versioned
	crit   string              // criterion name, parameterized ("static", "noise.v1(...)")
}

func keyOf(d regulator.Defect, cs process.CaseStudy, cond process.Condition, opt Options) pointKey {
	level := regulator.VrefLevel(-1)
	if opt.Level != nil {
		level = *opt.Level
	}
	return pointKey{defect: d, cs: cs, cond: cond, dwell: opt.Dwell, resTol: opt.ResTol,
		level: level, cold: opt.ColdStart, eng: opt.engine().Name(), crit: opt.criterion().Name()}
}

// pointCache memoizes characterization points across calls, so repeated
// probes — e.g. the test-flow optimizer re-probing all 12 (VDD, Vref)
// combinations, or a CLI run mixing per-defect and table sweeps — never
// recompute a (defect, case study, condition) search.
var pointCache sweep.Cache[pointKey, float64]

// minResistanceCached is minResistance behind the memo cache. env is
// called only on a cache miss, so hits skip the evaluation-context build
// entirely; concurrent requests for the same point share one computation
// (singleflight).
func minResistanceCached(cond process.Condition, env func() (engine.Eval, error), d regulator.Defect, cs process.CaseStudy, opt Options) (float64, error) {
	return pointCache.Do(keyOf(d, cs, cond, opt), func() (float64, error) {
		ev, err := env()
		if err != nil {
			return 0, err
		}
		return minResistance(ev, cond, d, cs, opt)
	})
}

// ResetCache drops every memoized characterization point. Benchmarks use
// it to measure cold sweeps; production flows never need it.
func ResetCache() { pointCache.Reset() }

// CacheLen reports the number of memoized characterization points.
func CacheLen() int { return pointCache.Len() }

// CharacterizeDefect runs the PVT sweep for one (defect, case study) pair
// and returns the Table II cell. Conditions are searched in parallel on
// the sweep engine; the result is identical for any worker count.
func CharacterizeDefect(d regulator.Defect, cs process.CaseStudy, opt Options) (Result, error) {
	res := Result{Defect: d, CS: cs, MinRes: math.Inf(1)}
	details, err := sweep.MapCtx(opt.ctx(), len(opt.Conditions), func(i int) (CondResult, error) {
		cond := opt.Conditions[i]
		r, err := MinResistanceAt(d, cs, cond, opt)
		if err != nil {
			return CondResult{}, fmt.Errorf("charac: %s/%s at %s: %w", d, cs.Name, cond, err)
		}
		return r, nil
	}, sweep.Workers(opt.Workers))
	if err != nil {
		return res, err
	}
	res.Details = details
	for _, cr := range details {
		if cr.MinRes < res.MinRes {
			res.MinRes, res.Cond = cr.MinRes, cr.Cond
		}
	}
	return res, nil
}

// MinResistancesAt finds the minimal DRF-causing resistance of each
// listed defect for case study cs at one PVT condition, sharing a single
// per-condition evaluation context across the defects. Per-defect
// outcomes are reported positionally in errs, so a caller like the
// test-flow measurement can treat individual failures as "undetectable
// here" without losing the rest of the condition.
func MinResistancesAt(ds []regulator.Defect, cs process.CaseStudy, cond process.Condition, opt Options) (res []CondResult, errs []error) {
	var ev engine.Eval
	env := func() (engine.Eval, error) {
		if ev == nil {
			var err error
			if ev, err = newEval(cond, opt); err != nil {
				return nil, err
			}
		}
		return ev, nil
	}
	res = make([]CondResult, len(ds))
	errs = make([]error, len(ds))
	ctx := opt.ctx()
	for i, d := range ds {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		r, err := minResistanceCached(cond, env, d, cs, opt)
		res[i] = CondResult{Cond: cond, MinRes: r}
		errs[i] = err
	}
	if ev != nil {
		ev.Release()
	}
	return res, errs
}

// CharacterizeAll characterizes every (defect, case study) pair over the
// options' PVT grid on the sweep engine and returns the results
// defect-major (the paper's Table II row order). The task unit is one
// (condition, defect, case study) point, enumerated condition-major so
// that each worker's evaluation-context cache (regulator netlist + cell
// DRVs, rebuilt only on condition change) gets maximal reuse. The
// assembled tables are bit-identical to the sequential path for any
// worker count.
func CharacterizeAll(defects []regulator.Defect, css []process.CaseStudy, opt Options) ([]Result, error) {
	nPairs := len(defects) * len(css)
	nConds := len(opt.Conditions)

	// Worker state: the last evaluation contexts built, keyed by their
	// condition. Condition-major task order makes this a near-perfect
	// cache.
	type workerEnv struct {
		evals map[process.Condition]engine.Eval
	}
	mins, err := sweep.MapWorkerCtx(opt.ctx(), nConds*nPairs,
		func() *workerEnv { return &workerEnv{evals: map[process.Condition]engine.Eval{}} },
		func(w *workerEnv, t int) (float64, error) {
			cond := opt.Conditions[t/nPairs]
			pair := t % nPairs
			d := defects[pair/len(css)]
			cs := css[pair%len(css)]
			env := func() (engine.Eval, error) {
				if e, ok := w.evals[cond]; ok {
					return e, nil
				}
				e, err := newEval(cond, opt)
				if err != nil {
					return nil, err
				}
				w.evals[cond] = e
				return e, nil
			}
			r, err := minResistanceCached(cond, env, d, cs, opt)
			if err != nil {
				return 0, fmt.Errorf("charac: %s/%s at %s: %w", d, cs.Name, cond, err)
			}
			return r, nil
		}, sweep.Workers(opt.Workers))
	if err != nil {
		return nil, err
	}

	out := make([]Result, 0, nPairs)
	for di, d := range defects {
		for ci, cs := range css {
			res := Result{Defect: d, CS: cs, MinRes: math.Inf(1)}
			for k, cond := range opt.Conditions {
				r := mins[k*nPairs+di*len(css)+ci]
				res.Details = append(res.Details, CondResult{Cond: cond, MinRes: r})
				if r < res.MinRes {
					res.MinRes, res.Cond = r, cond
				}
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// Table2 reproduces the paper's Table II: the 17 DRF-capable defects ×
// the five case-study pairs (CSx-1 representatives; the CSx-0 twins are
// mirror-symmetric and give identical resistances). Results are returned
// defect-major in Table II's row order.
func Table2(opt Options) ([]Result, error) {
	return CharacterizeAll(regulator.DRFCandidates(), Table2CaseStudies(), opt)
}

// Table2CaseStudies returns the five CSx-1 representatives in Table II
// column order.
func Table2CaseStudies() []process.CaseStudy {
	all := process.Table1CaseStudies()
	return []process.CaseStudy{all[0], all[2], all[4], all[6], all[8]}
}
