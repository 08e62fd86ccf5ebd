package faultmap

import (
	"context"
	"math"
	"math/rand"

	"sramtest/internal/num"
	"sramtest/internal/process"
	"sramtest/internal/sweep"
)

// CalSamples is the sample count of the DRV fit. Each sample is a full
// bisection (~tens of ms on the production model), so the calibration
// is deliberately small: it only needs the bulk moments of the DRV
// distribution, not its tail — the tail is internal/yield's business.
// The production model answers through the process-wide engine memo,
// so only the first corpus run at a (seed, condition) pays the solves.
const CalSamples = 48

// Calib is the DRV calibration behind a corpus: the normal fit to the
// per-cell DRV_DS1 distribution at the corpus condition, and the
// per-bit, per-polarity retention-fault probability it implies at the
// retention rail. It travels with every Partial; calibration is a pure
// function of (model, cond, vref, seed) at any worker count, so every
// shard computes the identical Calib and MergePartials verifies that
// instead of trusting it.
type Calib struct {
	// Mu/Sigma are the sample mean and standard deviation of the DRV_DS1
	// fit (V).
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
	// PDRF is the implied per-bit probability that one polarity fails at
	// the rail: P(DRV > Vref) under the normal fit. By mirror symmetry
	// the same probability applies to each polarity independently.
	PDRF float64 `json:"pDRF"`
	// Solves is the fit's sample count (CalSamples, rendered as "48
	// solves"), not the bisections this run spent: a memoized sample
	// costs nothing, yet the bytes of every Calib stay the same.
	Solves int64 `json:"solves"`
}

// calibrate fits the DRV normal from CalSamples exact solves drawn on
// the reserved calibration stream (ChunkSeed chunk calibChunk, disjoint
// from every map stream) and evaluates the rail tail probability. All
// variations are drawn first and the solves run on the sweep workers;
// the moments are summed in sample order, so the fit is bit-identical
// at any worker count. A canceled ctx skips the solves not yet started
// and returns its error.
func calibrate(ctx context.Context, model Model, cond process.Condition, vref float64, seed int64, workers int) (Calib, error) {
	rng := rand.New(rand.NewSource(sweep.ChunkSeed(seed, calibChunk)))
	vs := make([]process.Variation, CalSamples)
	for i := range vs {
		vs[i] = process.RandomVariation(rng)
	}
	drvs, err := sweep.MapCtx(ctx, CalSamples, func(i int) (float64, error) {
		return model.DRV1(vs[i], cond), nil
	}, sweep.Workers(workers))
	if err != nil {
		return Calib{}, err
	}
	var sum, sum2 float64
	for _, d := range drvs {
		sum += d
		sum2 += d * d
	}
	n := float64(CalSamples)
	mu := sum / n
	variance := (sum2 - n*mu*mu) / (n - 1)
	sigma := math.Sqrt(math.Max(variance, 0))
	if sigma < 1e-9 {
		sigma = 1e-9 // a degenerate (constant) model still calibrates
	}
	return Calib{
		Mu:     mu,
		Sigma:  sigma,
		PDRF:   num.NormTail((vref - mu) / sigma),
		Solves: CalSamples,
	}, nil
}
