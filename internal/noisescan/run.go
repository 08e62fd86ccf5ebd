package noisescan

import (
	"context"
	"fmt"

	"sramtest/internal/engine"
	"sramtest/internal/shard"
	"sramtest/internal/spice"
	"sramtest/internal/sweep"
)

// PointStat carries the mergeable raw tallies of one rail point: the
// flip count and flip-time sum of the point's ensemble. Points are
// reduced strictly in index order by finalize, so a merged cluster run
// reproduces the local run's float operations — and therefore its bytes
// — exactly.
type PointStat struct {
	Point    int     `json:"point"`
	VDD      float64 `json:"vdd"`
	Runs     int     `json:"runs"`
	Flips    int     `json:"flips"`
	SumFlipT float64 `json:"sumFlipT"`
}

// railAt places point i on the scan grid [static−Below, static+Above].
func railAt(p Params, static float64, i int) float64 {
	lo, hi := static-p.Below, static+p.Above
	return lo + (hi-lo)*float64(i)/float64(p.Points-1)
}

// runPoint measures one rail point. Each point owns a fresh NoiseSim —
// the chunk-boundary discipline of the determinism contract taken to
// its limit — and ensemble member r draws the reserved criterion stream
// ChunkSeed(Seed, NoiseStreamBase+r), the same streams at every rail
// (common random numbers, exactly as the criterion's bisection probes).
func runPoint(p Params, static float64, i int) (PointStat, error) {
	st := PointStat{Point: i, VDD: railAt(p, static, i), Runs: p.Noise.Runs}
	cs := p.caseStudy()
	sim := engine.NewNoiseSim(cs.Variation, p.Cond, p.Noise, spice.DefaultOptions())
	for r := 0; r < p.Noise.Runs; r++ {
		flipped, ft, err := sim.Run(st.VDD, sweep.ChunkSeed(p.Noise.Seed, engine.NoiseStreamBase+r), p.Noise.Window)
		if err != nil {
			return PointStat{}, err
		}
		if flipped {
			st.Flips++
			st.SumFlipT += ft
		}
	}
	return st, nil
}

// run executes the shared scan engine: calibrate the thresholds, fan
// the shard's points over the sweep engine, and either finalize (full
// scan) or export the partial.
func run(ctx context.Context, p Params) (Result, Partial, error) {
	p, err := p.withDefaults()
	if err != nil {
		return Result{}, Partial{}, err
	}
	cs := p.caseStudy()
	// Both thresholds are pure, deterministic functions of the params,
	// so every shard computes the identical Calib; MergePartials
	// verifies that instead of trusting it.
	cal := Calib{
		CS:        cs.Name,
		StaticDRV: engine.CachedDRV1(cs.Variation, p.Cond),
	}
	cal.EffDRV = engine.EffectiveDRV1(cs.Variation, p.Cond, p.Noise, spice.DefaultOptions())

	idx := shard.Owned(p.Points, p.Shards, p.Shard)
	stats, err := sweep.MapCtx(ctx, len(idx), func(i int) (PointStat, error) {
		return runPoint(p, cal.StaticDRV, idx[i])
	}, sweep.Workers(p.Workers))
	if err != nil {
		return Result{}, Partial{}, err
	}

	part := Partial{
		Version:   PartialVersion,
		CaseStudy: p.CaseStudy,
		Cond:      p.Cond,
		Points:    p.Points,
		Below:     p.Below,
		Above:     p.Above,
		Noise:     p.Noise,
		Shards:    p.Shards,
		Shard:     p.Shard,
		Calib:     cal,
		Stats:     stats,
	}
	if p.Shards > 1 {
		countPartial(part)
		return Result{}, part, nil
	}
	res := finalize(part)
	countScan(res)
	return res, part, nil
}

// Scan runs the whole flip-probability scan; Params.Shards > 1 is
// refused with ErrBadParams (use ShardPartial + MergePartials).
func Scan(ctx context.Context, p Params) (Result, error) {
	if err := shard.Whole(p.Shards); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	res, _, err := run(ctx, p)
	return res, err
}

// ShardPartial runs only this shard's points (any valid Shards/Shard,
// Shards <= 1 being the whole scan) and returns the mergeable raw
// tallies (see MergePartials).
func ShardPartial(ctx context.Context, p Params) (Partial, error) {
	_, part, err := run(ctx, p)
	return part, err
}

// finalize reduces the point tallies — strictly in point order — to the
// reported Result. It is the single reduction path shared by the local,
// daemon, and cluster-merged runs.
func finalize(part Partial) Result {
	res := Result{
		CS:        part.Calib.CS,
		Cond:      part.Cond,
		Noise:     part.Noise,
		Points:    part.Points,
		StaticDRV: part.Calib.StaticDRV,
		EffDRV:    part.Calib.EffDRV,
		Tighten:   part.Calib.EffDRV - part.Calib.StaticDRV,
		Curve:     make([]Point, 0, len(part.Stats)),
	}
	for _, st := range part.Stats {
		pt := Point{VDD: st.VDD, Flips: st.Flips, Runs: st.Runs}
		if st.Runs > 0 {
			pt.PFlip = float64(st.Flips) / float64(st.Runs)
		}
		if st.Flips > 0 {
			pt.MeanFlipT = st.SumFlipT / float64(st.Flips)
		}
		res.Curve = append(res.Curve, pt)
	}
	return res
}
