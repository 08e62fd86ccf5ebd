package yield

import (
	"fmt"

	"sramtest/internal/process"
	"sramtest/internal/shard"
)

// PartialVersion tags the Partial wire format; a merger refuses any
// other version rather than silently misreading future fields.
const PartialVersion = 1

// Calib is the exported screen calibration that travels with every
// Partial. Calibration is a pure, sequential function of (cond, vref,
// seed), so every shard computes the identical Calib; MergePartials
// verifies that instead of trusting it.
type Calib struct {
	Shift          process.Variation `json:"shift"`
	ShiftNorm      float64           `json:"shiftNorm"`
	Margin         float64           `json:"margin"`
	CalSolves      int64             `json:"calSolves"`
	BoundarySolves int64             `json:"boundarySolves"`
	// Certified is the P = 0 certificate: no failure boundary inside the
	// ±6σ support, verified at the worst support corner. Certified shards
	// carry no chunks.
	Certified bool `json:"certified"`
}

// export snapshots the screen's calibration for the Partial wire format.
func (s *screen) export() Calib {
	return Calib{
		Shift:          s.shift,
		ShiftNorm:      s.shiftNorm,
		Margin:         s.margin(s.shiftNorm),
		CalSolves:      s.calSolves,
		BoundarySolves: s.boundarySolves,
		Certified:      s.certified(s.vref),
	}
}

// Partial is one shard's share of a yield estimate: the job header, the
// (shard-invariant) screen calibration, and the per-chunk sufficient
// statistics of the chunks the shard owns (index ≡ Shard mod Shards).
// It is the artifact a sharded yield job emits and the unit
// MergePartials consumes; all fields are exact-roundtrip JSON (float64
// survives encoding/json bit-for-bit), so a merged estimate is
// byte-identical to the unsharded run.
type Partial struct {
	Version int               `json:"version"`
	Method  string            `json:"method"`
	Cond    process.Condition `json:"cond"`
	Vref    float64           `json:"vref"`
	Samples int               `json:"samples"`
	Seed    int64             `json:"seed"`
	Shards  int               `json:"shards"`
	Shard   int               `json:"shard"`
	Calib   Calib             `json:"calib"`
	Chunks  []ChunkStat       `json:"chunks"`
}

// Certified reports whether this partial carries a P = 0 certificate
// (in which case it has no chunks to merge).
func (p Partial) Certified() bool { return p.Calib.Certified }

// mergeHeader is the merge-identity of a partial: everything that must
// agree across shards, in a comparable struct.
type mergeHeader struct {
	Method  string
	Cond    process.Condition
	Vref    float64
	Samples int
	Seed    int64
	Calib   Calib
}

// view is the partial as the shared merge sees it. A certified
// estimate samples nothing, so its partials must carry no chunks.
func (p Partial) view() shard.Part[mergeHeader, ChunkStat] {
	n := numChunks(p.Samples)
	if p.Certified() {
		n = 0
	}
	return shard.Part[mergeHeader, ChunkStat]{
		Version: p.Version,
		Shards:  p.Shards,
		Shard:   p.Shard,
		Head: mergeHeader{
			Method:  p.Method,
			Cond:    p.Cond,
			Vref:    p.Vref,
			Samples: p.Samples,
			Seed:    p.Seed,
			Calib:   p.Calib,
		},
		N:     n,
		Units: p.Chunks,
	}
}

// MergePartials reassembles a full estimate from one partial per shard.
// shard.Merge verifies that every shard ran the same job (identical
// header and calibration), that exactly the expected shards are
// present, and that the union of chunks covers the sample budget with
// no gap or overlap; the chunks are then reduced through the same
// chunk-ordered finalize as a local run, reproducing its bytes exactly.
func MergePartials(parts []Partial) (Result, error) {
	chunks, err := shard.Merge(parts, Partial.view, PartialVersion, func(st ChunkStat) int { return st.Chunk })
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	merged := parts[0]
	merged.Shards, merged.Shard, merged.Chunks = 1, 0, chunks
	return finalize(merged), nil
}
