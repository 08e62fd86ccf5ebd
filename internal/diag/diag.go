// Package diag implements fault-dictionary defect diagnosis from March
// m-LZ failure signatures: given the pass/fail behaviour that the paper's
// optimized three-condition test flow observes on a failing device, which
// regulator defect (and roughly which resistance) caused it?
//
// The approach is the classic cause–effect dictionary of memory/logic
// diagnosis, specialized to the paper's fault universe:
//
//  1. Build — for every candidate (defect, resistance decade, case
//     study), simulate the optimized flow and record a compressed failure
//     signature per condition: pass/fail, the first failing March
//     element/operation, the set of failing elements, and the failing
//     address bitmap summarized into per-row/per-column syndrome counts
//     (dictionary.go, signature.go, simulate.go).
//  2. Match — rank dictionary entries against an observed signature:
//     exact hit first, then nearest by a weighted per-field distance,
//     with ties reported honestly as an ambiguity set (match.go).
//  3. Refine — when the flow's three conditions cannot separate the
//     surviving candidates, greedily pick extra (VDD, Vref) conditions
//     from the full 12 of the test-flow optimizer that maximally split
//     the ambiguity set, observe them, and filter (refine.go).
//
// Construction fans out over the sweep engine and is deterministic: the
// dictionary bytes are identical at any worker count.
package diag

import (
	"context"
	"math"

	"sramtest/internal/engine"
	"sramtest/internal/march"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/testflow"
)

// Candidate is one hypothesis the dictionary can diagnose: a regulator
// defect at a given open resistance, sensitized by one of the paper's
// Table I variation scenarios.
type Candidate struct {
	Defect regulator.Defect
	Res    float64
	CS     process.CaseStudy
}

// Options configures dictionary construction and signature observation.
type Options struct {
	// Corner/TempC fix the PVT point of the production test (default:
	// fs / 125 °C, the paper's recommendation).
	Corner process.Corner
	TempC  float64
	// Dwell is the deep-sleep residence time per DSM element.
	Dwell float64
	// Defects are the candidate injection sites (default: the 17
	// DRF-capable defects of Table II).
	Defects []regulator.Defect
	// CaseStudies are the sensitizing variation scenarios (default: the
	// ten Table I case studies).
	CaseStudies []process.CaseStudy
	// Decades are the candidate open resistances (default: 1 kΩ..100 MΩ
	// in decade steps).
	Decades []float64
	// Flow lists the conditions the production test observes (default:
	// the paper's optimized three-condition flow, Table III).
	Flow []testflow.TestCondition
	// Extra lists the conditions the adaptive refiner may add (default:
	// the remaining nine of the 12 candidate conditions). Ignored when
	// BaseOnly is set.
	Extra []testflow.TestCondition
	// BaseOnly skips the Extra signatures: the dictionary is ~4× cheaper
	// to build but cannot drive the adaptive refiner.
	BaseOnly bool
	// PointsPerDecade, when > 1, subdivides every adjacent Decades pair
	// into that many log-spaced steps (FineDecades) and builds the fine
	// grid by interpolation: decade anchors simulate exactly, equal
	// anchor signatures fill the span, and differing spans bisect down
	// to the grid until every change point is located (expand.go). The
	// result is byte-identical to an exhaustive build of the same fine
	// grid wherever signatures are span-monotone — the regime the
	// equivalence tests pin — at a small fraction of the simulations.
	PointsPerDecade int
	// Workers bounds the sweep-engine concurrency; 0 uses the process
	// default. The dictionary never depends on it.
	Workers int
	// Ctx, when non-nil, cancels construction.
	Ctx context.Context
	// ColdStart disables warm-start continuation in the electrical
	// solves behind every simulation (ablation/debug knob for the
	// dictionary equivalence tests; production builds leave it false).
	ColdStart bool
	// Engine selects the simulation backend; nil uses the exact SPICE
	// backend (engine.Default). The backend's name is part of the
	// simulation memo key; the dictionary artifact itself records no
	// engine.
	Engine engine.Engine
}

// DefaultFlowConditions returns the paper's optimized three-condition
// flow (Table III): (1.0 V, 0.74·VDD), (1.1 V, 0.70·VDD),
// (1.2 V, 0.64·VDD).
func DefaultFlowConditions() []testflow.TestCondition {
	return []testflow.TestCondition{
		{VDD: 1.0, Level: regulator.L74},
		{VDD: 1.1, Level: regulator.L70},
		{VDD: 1.2, Level: regulator.L64},
	}
}

// ExtraConditions returns all candidate conditions not in flow, in
// AllTestConditions order — the refiner's selection pool.
func ExtraConditions(flow []testflow.TestCondition) []testflow.TestCondition {
	in := map[testflow.TestCondition]bool{}
	for _, tc := range flow {
		in[tc] = true
	}
	var out []testflow.TestCondition
	for _, tc := range testflow.AllTestConditions() {
		if !in[tc] {
			out = append(out, tc)
		}
	}
	return out
}

// DefaultDecades returns the default resistance grid: decades from 1 kΩ
// to 100 MΩ, spanning every sensitivity of the measured Table III matrix.
func DefaultDecades() []float64 {
	return []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
}

// FineDecades expands a resistance grid: every adjacent pair of the
// (ascending) input grid is subdivided into points log-spaced steps.
// The input points appear verbatim as anchors, so the fine grid of a
// decade ladder is 10^(1/points)-spaced. points <= 1 returns the input.
func FineDecades(decades []float64, points int) []float64 {
	if points <= 1 || len(decades) < 2 {
		return decades
	}
	out := make([]float64, 0, (len(decades)-1)*points+1)
	for i := 0; i < len(decades)-1; i++ {
		a, b := decades[i], decades[i+1]
		out = append(out, a)
		la, lb := math.Log(a), math.Log(b)
		for k := 1; k < points; k++ {
			out = append(out, math.Exp(la+(lb-la)*float64(k)/float64(points)))
		}
	}
	return append(out, decades[len(decades)-1])
}

// DefaultOptions mirrors the paper's production-test setup.
func DefaultOptions() Options {
	return Options{
		Corner:      process.FS,
		TempC:       125,
		Dwell:       1e-3,
		Defects:     regulator.DRFCandidates(),
		CaseStudies: process.Table1CaseStudies(),
		Decades:     DefaultDecades(),
		Flow:        DefaultFlowConditions(),
	}
}

// withDefaults fills zero fields with the defaults.
func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.TempC == 0 {
		o.Corner, o.TempC = d.Corner, d.TempC
	}
	if o.Dwell == 0 {
		o.Dwell = d.Dwell
	}
	if len(o.Defects) == 0 {
		o.Defects = d.Defects
	}
	if len(o.CaseStudies) == 0 {
		o.CaseStudies = d.CaseStudies
	}
	if len(o.Decades) == 0 {
		o.Decades = d.Decades
	}
	if len(o.Flow) == 0 {
		o.Flow = d.Flow
	}
	if len(o.Extra) == 0 && !o.BaseOnly {
		o.Extra = ExtraConditions(o.Flow)
	}
	if o.BaseOnly {
		o.Extra = nil
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
	return o
}

// test returns the March test the dictionary is built on.
func (o Options) test() march.Test {
	t := march.MarchMLZ()
	t.Dwell = o.Dwell
	return t
}
