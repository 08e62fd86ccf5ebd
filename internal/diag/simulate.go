package diag

import (
	"fmt"

	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe" // default backend
	"sramtest/internal/march"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/spice"
	"sramtest/internal/sram"
	"sramtest/internal/sweep"
	"sramtest/internal/testflow"
)

// simKey identifies one candidate-at-condition simulation. Every field
// that shapes the outcome is part of the key, so the memo below is exact.
// The engine name is included (the engine-seam satellite): an approximate
// backend's signatures must never masquerade as exact ones.
type simKey struct {
	corner process.Corner
	tempC  float64
	dwell  float64
	vdd    float64
	level  regulator.VrefLevel
	defect regulator.Defect
	res    float64
	cells  int
	v      process.Variation
	cold   bool   // ColdStart ablation runs are cached separately
	eng    string // backend name, calibration-versioned
}

// simCache memoizes whole condition simulations across the process: the
// dictionary builder, the round-trip matcher and the adaptive refiner all
// probe the same (candidate, condition) points, and each point costs
// milliseconds of cell/regulator solving. Singleflight semantics keep the
// results worker-invariant.
var simCache sweep.Cache[simKey, CondSignature]

// ResetCache drops the process-wide simulation memo. Determinism tests
// and benchmarks use it to measure real recomputation, not memo hits.
func ResetCache() { simCache.Reset() }

// simulate runs March m-LZ once on a device carrying the candidate defect
// at the given test condition and compresses the outcome. warm, when
// non-nil, carries the deep-sleep operating point across a candidate's
// condition chain: *warm seeds the backend's solve and is replaced by the
// chain point the backend returns (cache hits, and screened evaluations
// that never solve, leave it untouched). The regulator netlists of all
// conditions share one layout, so the seed is always shape-compatible;
// the solver falls back to homotopy from scratch when the seed misleads
// Newton.
//
// The retention model is queried through the options' engine, which
// builds the full electrical model up front (pre-seam behaviour,
// relocated into engine/spicebe).
func simulate(opt Options, cand Candidate, tc testflow.TestCondition, warm **spice.Solution) (CondSignature, error) {
	eng := engine.Pick(opt.Engine)
	key := simKey{
		corner: opt.Corner, tempC: opt.TempC, dwell: opt.Dwell,
		vdd: tc.VDD, level: tc.Level,
		defect: cand.Defect, res: cand.Res,
		cells: cand.CS.Cells, v: cand.CS.Variation,
		cold: opt.ColdStart, eng: eng.Name(),
	}
	return simCache.Do(key, func() (CondSignature, error) {
		cond := process.Condition{Corner: opt.Corner, VDD: tc.VDD, TempC: opt.TempC}
		sopt := spice.DefaultOptions()
		sopt.ColdStart = opt.ColdStart
		var seed *spice.Solution
		if warm != nil {
			seed = *warm
		}
		// Diagnosis signatures are static-calibrated by design: the
		// dictionary, the matcher corpus and every fielded signature were
		// generated under the static DRV rule, and a criterion mismatch
		// between dictionary and observation would silently corrupt
		// matching. The criterion is therefore pinned to Static and needs
		// no simKey field.
		ev, err := eng.Eval(cond, tc.Level, sopt, engine.Static{})
		if err != nil {
			return CondSignature{}, fmt.Errorf("diag: %s R=%.3g at %s: %w", cand.Defect, cand.Res, tc, err)
		}
		ret, chain, err := ev.Retention(cand.Defect, cand.Res, seed)
		if err != nil {
			ev.Release()
			return CondSignature{}, fmt.Errorf("diag: %s R=%.3g at %s: %w", cand.Defect, cand.Res, tc, err)
		}
		if warm != nil {
			*warm = chain
		}
		s := sram.New()
		s.SetRetention(ret)
		PlaceCells(s, cand.CS)
		rep, err := march.RunWith(opt.test(), s, march.RunOptions{CaptureAll: true})
		// The retention model is fully consumed (every Survives decision
		// made) once the March run returns; the backend's pooled resources
		// can move on.
		ev.Release()
		if err != nil {
			return CondSignature{}, fmt.Errorf("diag: march at %s: %w", tc, err)
		}
		return SignatureFromFailures(tc, rep.Failures, rep.TotalMiscompares), nil
	})
}

// PlaceCells registers the case study's affected cells at the canonical
// embedding: cell i sits at word (i·131) mod Words, bit (i·7+3) mod Bits.
// The strides are coprime to the array dimensions, so the CS5 cluster
// spreads over 64 distinct words and bit positions — a fixed, documented
// placement that makes dictionary syndromes reproducible. Diagnosis does
// not depend on the true physical location (the regulator defect is
// global); only the failing-cell count and its syndrome shape matter.
func PlaceCells(s *sram.SRAM, cs process.CaseStudy) {
	for i := 0; i < cs.Cells; i++ {
		s.RegisterVariation((i*131)%sram.Words, (i*7+3)%sram.Bits, cs.Variation)
	}
}

// ObserveSignature simulates the given conditions on a candidate device
// — the software model of putting a failing part on the tester. The
// production observation is Flow; the refiner observes extra conditions
// one at a time.
func ObserveSignature(opt Options, cand Candidate, conds []testflow.TestCondition) (Signature, error) {
	opt = opt.withDefaults()
	sig := Signature{Test: opt.test().Name, Dwell: opt.Dwell}
	css, err := sweep.MapCtx(opt.Ctx, len(conds), func(i int) (CondSignature, error) {
		return simulate(opt, cand, conds[i], nil)
	}, sweep.Workers(opt.Workers))
	if err != nil {
		return Signature{}, err
	}
	sig.Conds = css
	return sig, nil
}

// BuildSignature observes the optimized flow on a candidate device: the
// signature a failing part presents to the matcher.
func BuildSignature(opt Options, cand Candidate) (Signature, error) {
	opt = opt.withDefaults()
	return ObserveSignature(opt, cand, opt.Flow)
}
