package noisescan

import (
	"fmt"

	"sramtest/internal/engine"
	"sramtest/internal/process"
	"sramtest/internal/shard"
)

// PartialVersion tags the Partial wire format; a merger refuses any
// other version rather than silently misreading future fields.
const PartialVersion = 1

// Calib is the shard-invariant threshold pair that travels with every
// Partial: the static DRV anchoring the scan grid and the noise
// criterion's effective DRV under the scan's own ensemble parameters.
// Both are pure functions of (case study, cond, noise params), so every
// shard computes the identical Calib; MergePartials verifies that
// instead of trusting it.
type Calib struct {
	CS        string  `json:"cs"`
	StaticDRV float64 `json:"staticDRV"`
	EffDRV    float64 `json:"effDRV"`
}

// Partial is one shard's share of a scan: the job header, the
// (shard-invariant) calibration, and the raw tallies of the rail points
// the shard owns (index ≡ Shard mod Shards). It is the artifact a
// sharded noisescan job emits and the unit MergePartials consumes; all
// fields are exact-roundtrip JSON, so a merged scan is byte-identical
// to the unsharded run.
type Partial struct {
	Version   int                `json:"version"`
	CaseStudy int                `json:"caseStudy"`
	Cond      process.Condition  `json:"cond"`
	Points    int                `json:"points"`
	Below     float64            `json:"below"`
	Above     float64            `json:"above"`
	Noise     engine.NoiseParams `json:"noise"`
	Shards    int                `json:"shards"`
	Shard     int                `json:"shard"`
	Calib     Calib              `json:"calib"`
	Stats     []PointStat        `json:"stats"`
}

// mergeHeader is the merge-identity of a partial: everything that must
// agree across shards, in a comparable struct.
type mergeHeader struct {
	CaseStudy int
	Cond      process.Condition
	Points    int
	Below     float64
	Above     float64
	Noise     engine.NoiseParams
	Calib     Calib
}

// view is the partial as the shared merge sees it.
func (p Partial) view() shard.Part[mergeHeader, PointStat] {
	return shard.Part[mergeHeader, PointStat]{
		Version: p.Version,
		Shards:  p.Shards,
		Shard:   p.Shard,
		Head: mergeHeader{
			CaseStudy: p.CaseStudy,
			Cond:      p.Cond,
			Points:    p.Points,
			Below:     p.Below,
			Above:     p.Above,
			Noise:     p.Noise,
			Calib:     p.Calib,
		},
		N:     p.Points,
		Units: p.Stats,
	}
}

// MergePartials reassembles a full scan from one partial per shard.
// shard.Merge verifies that every shard ran the same job (identical
// header and calibration), that exactly the expected shards are
// present, and that the union of points covers the grid with no gap or
// overlap; the points are then reduced through the same point-ordered
// finalize as a local run, reproducing its bytes exactly.
func MergePartials(parts []Partial) (Result, error) {
	stats, err := shard.Merge(parts, Partial.view, PartialVersion, func(st PointStat) int { return st.Point })
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	merged := parts[0]
	merged.Shards, merged.Shard, merged.Stats = 1, 0, stats
	return finalize(merged), nil
}
