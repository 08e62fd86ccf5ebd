// Package noisescan sweeps the deep-sleep rail across a cell's static
// DRV neighbourhood and measures the flip probability of the stored
// datum under the noise criterion's accelerated stochastic transient
// ensembles — the P(flip) vs V_DD_DS curve of EXP-NS. The scan is the
// observable behind the noise criterion: its curve shows the sigmoid
// between "statically dead" (P = 1 below the static DRV) and "noise-
// immune" (P = 0 above the effective DRV), and the criterion's
// tightened threshold is exactly where the curve crosses PFail.
//
// Determinism: each rail point is an independent unit — a fresh
// NoiseSim, ensemble member r drawing its noise stream from the
// reserved block sweep.ChunkSeed(Seed, engine.NoiseStreamBase+r), the
// same streams at every rail (common random numbers). Results are
// therefore byte-identical at any worker count, across the CLI and the
// daemon, and across a cluster shard fan-out merged by MergePartials
// (shard s of k owns the points with index ≡ s mod k).
package noisescan

import (
	"errors"
	"fmt"

	"sramtest/internal/engine"
	"sramtest/internal/process"
	"sramtest/internal/shard"
)

// Defaults and protocol constants.
const (
	// DefaultCaseStudy is the Table I scenario the scan defaults to:
	// CS5 — the 64-cell cluster whose shared variation puts its static
	// DRV highest, the documented near-DRV divergence case.
	DefaultCaseStudy = 5
	// DefaultPoints is the default rail-grid size: fine enough to show
	// the flip sigmoid at the default 2 mV-class tightening resolution.
	DefaultPoints = 13
	// DefaultBelow/DefaultAbove bound the scan range relative to the
	// static DRV (V): one clearly-dead point below, and enough headroom
	// above to contain the default MaxTighten cap of 150 mV... in
	// practice the sigmoid completes well under 100 mV.
	DefaultBelow = 0.02 // V
	DefaultAbove = 0.10 // V
	// MaxPoints caps one scan.
	MaxPoints = 4096
	// DefaultSeed matches the repo's fixed Monte-Carlo seed.
	DefaultSeed = 2013
)

// ErrBadParams marks parameter validation failures.
var ErrBadParams = errors.New("noisescan: invalid params")

// Params describes one flip-probability scan. Workers only affects
// wall-clock time, and Shards/Shard only select a subset of rail
// points — neither changes any reported number.
type Params struct {
	// CaseStudy is the Table I scenario index (1..5), scanned on its
	// stored-'1' side (CSx-1); 0 selects DefaultCaseStudy.
	CaseStudy int
	// Cond is the PVT condition; the zero value selects the fixed
	// Monte-Carlo condition (FS, 1.1 V, 125 °C).
	Cond process.Condition
	// Points is the rail-grid size; 0 selects DefaultPoints.
	Points int
	// Below/Above bound the scanned rails relative to the static DRV:
	// [DRV−Below, DRV+Above]. 0 selects the defaults; both must be >= 0
	// and the range must be non-degenerate.
	Below float64
	Above float64
	// Noise are the ensemble parameters; the zero value selects
	// engine.DefaultNoiseParams. A zero Seed selects DefaultSeed.
	Noise engine.NoiseParams
	// Workers bounds sweep concurrency (0 = process default).
	Workers int
	// Shards/Shard select a point subset for cluster fan-out: shard s of
	// k owns the points with index ≡ s (mod k). Shards <= 1 means the
	// whole scan.
	Shards int
	Shard  int
}

// mcCondition is the repo's fixed Monte-Carlo condition.
var mcCondition = process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}

// withDefaults validates p and fills the defaulted fields in.
func (p Params) withDefaults() (Params, error) {
	if p.CaseStudy == 0 {
		p.CaseStudy = DefaultCaseStudy
	}
	if p.CaseStudy < 1 || p.CaseStudy > 5 {
		return p, fmt.Errorf("%w: case study %d, want 1..5", ErrBadParams, p.CaseStudy)
	}
	if p.Cond == (process.Condition{}) {
		p.Cond = mcCondition
	}
	if p.Points == 0 {
		p.Points = DefaultPoints
	}
	if p.Points < 2 || p.Points > MaxPoints {
		return p, fmt.Errorf("%w: points = %d, want 2..%d", ErrBadParams, p.Points, MaxPoints)
	}
	if p.Below == 0 {
		p.Below = DefaultBelow
	}
	if p.Above == 0 {
		p.Above = DefaultAbove
	}
	if p.Below < 0 || p.Above < 0 || p.Below+p.Above <= 0 {
		return p, fmt.Errorf("%w: scan range −%g/+%g V around the static DRV", ErrBadParams, p.Below, p.Above)
	}
	if p.Noise == (engine.NoiseParams{}) {
		p.Noise = engine.DefaultNoiseParams()
	}
	if p.Noise.Seed == 0 {
		p.Noise.Seed = DefaultSeed
	}
	if err := p.Noise.Validate(); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	var err error
	if p.Shards, p.Shard, err = shard.Normalize(p.Shards, p.Shard); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	return p, nil
}

// caseStudy resolves the stored-'1' Table I row of the scan.
func (p Params) caseStudy() process.CaseStudy {
	return process.Table1CaseStudies()[2*(p.CaseStudy-1)]
}

// Point is one rail point of the finished curve.
type Point struct {
	VDD   float64 `json:"vdd"`
	PFlip float64 `json:"pFlip"`
	// MeanFlipT is the mean time-to-flip over the flipped members (s);
	// 0 when no member flipped.
	MeanFlipT float64 `json:"meanFlipT"`
	Flips     int     `json:"flips"`
	Runs      int     `json:"runs"`
}

// Result is one completed scan. Every field is a pure function of the
// Params, so rendered results are byte-identical across worker counts
// and across the CLI/daemon/cluster paths.
type Result struct {
	CS     string             `json:"cs"`
	Cond   process.Condition  `json:"cond"`
	Noise  engine.NoiseParams `json:"noise"`
	Points int                `json:"points"`

	// StaticDRV is the static oracle's DRV_DS1; EffDRV the noise
	// criterion's tightened threshold under the same ensemble
	// parameters; Tighten their difference.
	StaticDRV float64 `json:"staticDRV"`
	EffDRV    float64 `json:"effDRV"`
	Tighten   float64 `json:"tighten"`

	Curve []Point `json:"curve"`
}
