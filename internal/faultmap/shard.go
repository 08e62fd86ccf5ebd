package faultmap

import (
	"fmt"
	"strings"

	"sramtest/internal/process"
	"sramtest/internal/shard"
)

// PartialVersion tags the Partial wire format; a merger refuses any
// other version rather than silently misreading future fields.
const PartialVersion = 1

// Partial is one shard's share of a corpus evaluation: the job header,
// the (shard-invariant) DRV calibration, and the per-chunk statistics
// of the chunks the shard owns (index ≡ Shard mod Shards). All fields
// are exact-roundtrip JSON, so a merged evaluation is byte-identical to
// the unsharded run.
type Partial struct {
	Version int               `json:"version"`
	Cond    process.Condition `json:"cond"`
	Vref    float64           `json:"vref"`
	Maps    int               `json:"maps"`
	Seed    int64             `json:"seed"`
	Defect  float64           `json:"defect"`
	Engine  string            `json:"engine"`
	Tests   []string          `json:"tests"`
	Shards  int               `json:"shards"`
	Shard   int               `json:"shard"`
	Calib   Calib             `json:"calib"`
	Chunks  []ChunkStat       `json:"chunks"`
}

// mergeHeader is the merge-identity of a partial: everything that must
// agree across shards, in a comparable struct (the test list joined on
// an unprintable separator).
type mergeHeader struct {
	Cond   process.Condition
	Vref   float64
	Maps   int
	Seed   int64
	Defect float64
	Engine string
	Tests  string
	Calib  Calib
}

// view is the partial as the shared merge sees it.
func (p Partial) view() shard.Part[mergeHeader, ChunkStat] {
	return shard.Part[mergeHeader, ChunkStat]{
		Version: p.Version,
		Shards:  p.Shards,
		Shard:   p.Shard,
		Head: mergeHeader{
			Cond:   p.Cond,
			Vref:   p.Vref,
			Maps:   p.Maps,
			Seed:   p.Seed,
			Defect: p.Defect,
			Engine: p.Engine,
			Tests:  strings.Join(p.Tests, "\x1f"),
			Calib:  p.Calib,
		},
		N:     numChunks(p.Maps),
		Units: p.Chunks,
	}
}

// MergePartials reassembles a full corpus evaluation from one partial
// per shard. shard.Merge verifies that every shard ran the same job
// (identical header and calibration), that exactly the expected shards
// are present, and that the union of chunks covers the corpus with no
// gap or overlap; every chunk must also carry one tally per test. The
// chunks are then reduced through the same chunk-ordered finalize as a
// local run, reproducing its bytes exactly.
func MergePartials(parts []Partial) (Result, error) {
	chunks, err := shard.Merge(parts, Partial.view, PartialVersion, func(st ChunkStat) int { return st.Chunk })
	if err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	merged := parts[0]
	for _, st := range chunks {
		if len(st.Tests) != len(merged.Tests) {
			return Result{}, fmt.Errorf("%w: chunk %d carries %d tallies for %d tests", ErrBadParams, st.Chunk, len(st.Tests), len(merged.Tests))
		}
	}
	merged.Shards, merged.Shard, merged.Chunks = 1, 0, chunks
	return finalize(merged), nil
}
