// Package yield estimates the rare-event retention yield of the SRAM
// array: P(DRV_DS > Vref) over within-die variation, at tail depths
// (5–6σ) that plain Monte-Carlo cannot reach — a 6σ tail probability of
// ~1e-9 would need on the order of 1e12 naive samples, each costing two
// full DRV bisections.
//
// Two cooperating variance-reduction estimators implement the
// Estimator interface:
//
//   - ImportanceSampler ("is") shifts the variation distribution toward
//     the failure boundary found by a cheap boundary search along the
//     calibrated DRV gradient, samples from a two-component mixture
//     (the shift and its mirror image, covering both stored-value
//     failure lobes), weights every sample by its likelihood ratio, and
//     reports the self-normalized estimate with an effective-sample-
//     size-aware confidence interval.
//
//   - Blockade ("blockade") is classic statistical blockade: the bulk
//     of unshifted samples is screened by the calibrated linear
//     surrogate band and only candidates whose band reaches past the
//     per-condition blockade threshold (Vref minus the band margin)
//     escalate to an exact DRV confirmation; the failure count yields a
//     Wilson-interval estimate.
//
// Both share one conservative screen (screen.go), through which every
// sample passes: a linear DRV_DS1 response surface over the six
// per-transistor ΔVth axes with an uncertainty margin calibrated from
// exact residuals near the failure boundary. A sample is only ever
// screened out when the whole band lies below the threshold, so no
// potential failure is silently discarded — every reported failure is
// exact-confirmed (DESIGN.md §5.11).
//
// Determinism: sampling is sharded into fixed-size chunks seeded by
// sweep.ChunkSeed, so every estimate is a pure function of its Params —
// byte-identical at any worker count, across the CLI and the daemon,
// and across a cluster shard fan-out merged by MergePartials.
package yield

import (
	"context"
	"errors"
	"fmt"

	"sramtest/internal/cell"
	"sramtest/internal/process"
	"sramtest/internal/shard"
)

// Defaults and protocol constants.
const (
	// DefaultSeed matches cmd/drv's fixed Monte-Carlo seed.
	DefaultSeed = 2013
	// DefaultSamples is the default sample budget: enough for a ~±50%
	// relative CI at the default 5–6σ tail, in seconds of wall clock.
	DefaultSamples = 256
	// DefaultVref is the default retention reference voltage of a yield
	// job: a what-if Vreg of 500 mV, below the paper's 740 mV deep-sleep
	// reference, chosen so the failure boundary sits in the 5–6σ band
	// (empirically ≈5.4σ at the FS/1.1V/125°C Monte-Carlo condition)
	// where variance reduction is the only viable estimator (see
	// EXPERIMENTS.md EXP-YD for the calibration record).
	DefaultVref = 0.50 // V
	// Chunk is the number of samples drawn from one derived RNG stream.
	// Sharding is by chunk — not by worker — so the sampled multiset is
	// a pure function of (Samples, Seed) for any worker count, and a
	// cluster shard owns whole chunks (Chunks with index ≡ Shard mod
	// Shards).
	Chunk = 32
	// MaxSamples caps one estimate, mirroring the exp job's sample cap.
	MaxSamples = 1 << 22
	// zCrit is the two-sided 95% normal critical value used by every
	// confidence interval in the package.
	zCrit = 1.959963984540054
)

// ErrBadParams marks parameter validation failures.
var ErrBadParams = errors.New("yield: invalid params")

// Model is the DRV response surface being integrated: the stored-'1'
// retention voltage as a function of local variation. The stored-'0'
// side never needs its own method — DRV_DS0(v) = DRV_DS1(mirror(v)) by
// the cell's mirror symmetry — so DRV_DS(v) = max of the two DRV1
// probes. Estimators treat each DRV1 call as one full solve; tests
// inject synthetic models with analytically known tail probabilities.
type Model interface {
	DRV1(v process.Variation, cond process.Condition) float64
}

// CellModel is the exact production model: the cell-level DRV bisection
// used by every characterization layer. Like exp.MonteCarlo it bypasses
// the engine.CachedDRV1 memo — yield estimates visit millions of
// distinct variations, and memoizing them would only grow the heap.
type CellModel struct{}

// DRV1 implements Model.
func (CellModel) DRV1(v process.Variation, cond process.Condition) float64 {
	return cell.New(v, cond).DRV1()
}

// Params describes one yield estimate. The zero value is not runnable:
// Samples must be positive. Workers only affects wall-clock time, and
// Shards/Shard only select a subset of chunks — neither changes any
// reported number.
type Params struct {
	// Cond is the PVT condition of the estimate.
	Cond process.Condition
	// Vref is the retention reference voltage; a cell fails when its
	// DRV_DS exceeds it. <= 0 selects DefaultVref.
	Vref float64
	// Samples is the total sample budget across all shards.
	Samples int
	// Seed drives the sharded RNG; 0 selects DefaultSeed.
	Seed int64
	// Workers bounds sweep concurrency (0 = process default).
	Workers int
	// Shards/Shard select a chunk subset for cluster fan-out: shard s of
	// k owns the chunks with index ≡ s (mod k). Shards <= 1 means the
	// whole estimate.
	Shards int
	Shard  int
	// Model overrides the DRV response surface (nil = CellModel).
	Model Model
}

// withDefaults validates p and fills the defaulted fields in.
func (p Params) withDefaults() (Params, error) {
	if p.Samples < 1 {
		return p, fmt.Errorf("%w: samples = %d, want >= 1", ErrBadParams, p.Samples)
	}
	if p.Samples > MaxSamples {
		return p, fmt.Errorf("%w: samples = %d exceeds the %d cap", ErrBadParams, p.Samples, MaxSamples)
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	if p.Vref <= 0 {
		p.Vref = DefaultVref
	}
	var err error
	if p.Shards, p.Shard, err = shard.Normalize(p.Shards, p.Shard); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	if p.Model == nil {
		p.Model = CellModel{}
	}
	return p, nil
}

// Result is one completed yield estimate. Every field is a pure
// function of the Params, so rendered results are byte-identical across
// worker counts and across the CLI/daemon/cluster paths.
type Result struct {
	Method  string            `json:"method"`
	Cond    process.Condition `json:"cond"`
	Vref    float64           `json:"vref"`
	Samples int               `json:"samples"`
	Seed    int64             `json:"seed"`

	// P is the estimated failure probability P(DRV_DS > Vref); CILo/CIHi
	// bracket it at 95% confidence and SE is the standard error behind
	// the bracket (the wider of the delta-method and ESS-binomial
	// errors for the importance sampler).
	P    float64 `json:"p"`
	CILo float64 `json:"ciLo"`
	CIHi float64 `json:"ciHi"`
	SE   float64 `json:"se"`
	// ESS is the effective sample size (Σw)²/Σw² of the weighted sample
	// (= Samples for the blockade estimator).
	ESS float64 `json:"ess"`
	// SigmaEquiv is Φ⁻¹(1−P), the tail depth in sigma units (+Inf when
	// P = 0).
	SigmaEquiv float64 `json:"sigmaEquiv"`

	// Shift is the importance-sampling mean shift in sigma units (zero
	// for blockade); ShiftNorm its Euclidean norm.
	Shift     process.Variation `json:"shift"`
	ShiftNorm float64           `json:"shiftNorm"`
	// Threshold is the per-condition blockade threshold on the screen's
	// point prediction: Vref minus the calibrated band margin.
	Threshold float64 `json:"threshold"`

	// Failures counts exact-confirmed failing samples; Screens and
	// Escalations split the band decisions; ExactSolves totals the full
	// DRV bisections spent (boundary + calibration + confirmations).
	Failures       int   `json:"failures"`
	Screens        int64 `json:"screens"`
	Escalations    int64 `json:"escalations"`
	ExactSolves    int64 `json:"exactSolves"`
	CalSolves      int64 `json:"calSolves"`
	BoundarySolves int64 `json:"boundarySolves"`

	// NaiveSolves estimates the full-DRV-solve cost of a naive
	// Monte-Carlo run of matched CI width (2 solves per sample at
	// p(1−p)/SE² samples); Speedup is NaiveSolves over ExactSolves.
	// Both are 0 when the estimate observed no failure.
	NaiveSolves float64 `json:"naiveSolves"`
	Speedup     float64 `json:"speedup"`

	// Certificate is non-empty when the estimate proved P = 0 inside
	// the ±6σ truncated variation support (the worst corner of the
	// support retains below Vref with band margin to spare).
	Certificate string `json:"certificate,omitempty"`
}

// Estimator is one yield estimation strategy.
type Estimator interface {
	// Name returns the method name used in job specs ("is", "blockade").
	Name() string
	// Estimate runs the full estimate; Params.Shards > 1 is refused
	// with ErrBadParams.
	Estimate(ctx context.Context, p Params) (Result, error)
	// Partial runs only this shard's chunks (any valid Shards/Shard,
	// Shards <= 1 being the whole estimate) and returns the mergeable
	// sufficient statistics (see MergePartials).
	Partial(ctx context.Context, p Params) (Partial, error)
}

// Methods lists the registered estimator names, in spec order.
func Methods() []string { return []string{MethodIS, MethodBlockade} }

// The two estimator names.
const (
	MethodIS       = "is"
	MethodBlockade = "blockade"
)

// New returns the estimator registered under method; "" selects the
// importance sampler.
func New(method string) (Estimator, error) {
	switch method {
	case "", MethodIS:
		return ImportanceSampler{}, nil
	case MethodBlockade:
		return Blockade{}, nil
	}
	return nil, fmt.Errorf("%w: unknown method %q (have %v)", ErrBadParams, method, Methods())
}
