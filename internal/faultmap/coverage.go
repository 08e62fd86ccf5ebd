package faultmap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"sramtest/internal/process"
	"sramtest/internal/shard"
	"sramtest/internal/sweep"
)

// ChunkStat carries the mergeable statistics of one chunk of maps: the
// corpus composition, the per-test detection tallies, and the chunk's
// map-hash digest. Chunks are reduced strictly in index order by
// finalize, so a merged cluster run reproduces the local run's bytes
// exactly.
type ChunkStat struct {
	Chunk int `json:"chunk"`
	// Maps is the number of maps in the chunk; Bits their total fault
	// bits, split per class in ByClass.
	Maps    int               `json:"maps"`
	Bits    int64             `json:"bits"`
	ByClass [NumClasses]int64 `json:"byClass"`
	// Digest is the hex SHA-256 over the chunk's map hashes in map
	// order — the byte-identity witness of the corpus.
	Digest string `json:"digest"`
	// Tests are the per-test tallies, index-aligned with the corpus
	// test-name list.
	Tests []TestTally `json:"tests"`
}

// runChunk generates and evaluates the chunk's maps sequentially (the
// sweep engine parallelizes across chunks).
func runChunk(g *Generator, names []string, c int) (ChunkStat, error) {
	p := g.Params()
	st := ChunkStat{Chunk: c, Tests: make([]TestTally, len(names))}
	for i := range st.Tests {
		st.Tests[i].Name = names[i]
	}
	h := sha256.New()
	lo, hi := c*MapChunk, (c+1)*MapChunk
	if hi > p.Maps {
		hi = p.Maps
	}
	for idx := lo; idx < hi; idx++ {
		m := g.Map(idx)
		h.Write([]byte(m.Hash()))
		st.Maps++
		st.Bits += int64(m.Bits())
		for cl, n := range m.ByClass() {
			st.ByClass[cl] += n
		}
		if err := evalMap(p, m, st.Tests); err != nil {
			return st, err
		}
	}
	st.Digest = hex.EncodeToString(h.Sum(nil))
	return st, nil
}

// numChunks is the number of map chunks of a corpus.
func numChunks(maps int) int { return (maps + MapChunk - 1) / MapChunk }

// run is the shared engine: calibrate, fan the shard's chunks over the
// sweep engine, and either finalize (full corpus) or export the
// partial.
func run(ctx context.Context, p Params) (Result, Partial, error) {
	g, err := newGenerator(ctx, p)
	if err != nil {
		return Result{}, Partial{}, err
	}
	p = g.Params()
	names, err := p.TestNames()
	if err != nil {
		return Result{}, Partial{}, err
	}

	idx := shard.Owned(numChunks(p.Maps), p.Shards, p.Shard)
	chunks, err := sweep.MapCtx(ctx, len(idx), func(i int) (ChunkStat, error) {
		return runChunk(g, names, idx[i])
	}, sweep.Workers(p.Workers))
	if err != nil {
		return Result{}, Partial{}, err
	}

	part := Partial{
		Version: PartialVersion,
		Cond:    p.Cond,
		Vref:    p.Vref,
		Maps:    p.Maps,
		Seed:    p.Seed,
		Defect:  p.Defect,
		Engine:  p.Engine,
		Tests:   names,
		Shards:  p.Shards,
		Shard:   p.Shard,
		Calib:   g.Calib(),
		Chunks:  chunks,
	}
	if p.Shards > 1 {
		countPartial(part)
		return Result{}, part, nil
	}
	res := finalize(part)
	countRun(res)
	return res, part, nil
}

// Estimate runs the full corpus evaluation; Params.Shards > 1 is
// refused with ErrBadParams (use ShardPartial + MergePartials).
func Estimate(ctx context.Context, p Params) (Result, error) {
	if err := shard.Whole(p.Shards); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	res, _, err := run(ctx, p)
	return res, err
}

// ShardPartial runs only this shard's chunks (any valid Shards/Shard,
// Shards <= 1 being the whole corpus) and returns the mergeable
// statistics (see MergePartials).
func ShardPartial(ctx context.Context, p Params) (Partial, error) {
	_, part, err := run(ctx, p)
	return part, err
}

// TestCoverage is one test's corpus-level coverage in a Result.
type TestCoverage struct {
	Name string `json:"name"`
	// Detected counts detected fault bits; Coverage is Detected over the
	// corpus fault-bit total (0 when the corpus is fault-free).
	Detected int64             `json:"detected"`
	Coverage float64           `json:"coverage"`
	ByClass  [NumClasses]int64 `json:"byClass"`
	// Miscompares/Dropped aggregate the raw failure accounting; CleanMaps
	// counts maps fully covered by this test.
	Miscompares int64 `json:"miscompares"`
	Dropped     int64 `json:"dropped"`
	CleanMaps   int64 `json:"cleanMaps"`
}

// GroupCoverage returns the test's coverage restricted to one reporting
// group, given the corpus class composition; ok is false when the
// corpus holds no fault of the group.
func (t TestCoverage) GroupCoverage(corpus [NumClasses]int64, group string) (cov float64, ok bool) {
	var det, bits int64
	for _, c := range GroupClasses(group) {
		det += t.ByClass[c]
		bits += corpus[c]
	}
	if bits == 0 {
		return 0, false
	}
	return float64(det) / float64(bits), true
}

// Result is one completed corpus evaluation. Every field is a pure
// function of the Params, so rendered results are byte-identical across
// worker counts and across the CLI/daemon/cluster paths.
type Result struct {
	Cond   process.Condition `json:"cond"`
	Vref   float64           `json:"vref"`
	Maps   int               `json:"maps"`
	Seed   int64             `json:"seed"`
	Defect float64           `json:"defect"`
	Engine string            `json:"engine"`
	Calib  Calib             `json:"calib"`

	// Bits is the corpus fault-bit total; ByClass its class split;
	// BitsPerMap the mean map density.
	Bits       int64             `json:"bits"`
	ByClass    [NumClasses]int64 `json:"byClass"`
	BitsPerMap float64           `json:"bitsPerMap"`
	// Digest fingerprints the whole corpus (SHA-256 over the chunk
	// digests in chunk order).
	Digest string `json:"digest"`

	// Tests are the per-test coverages, in evaluation order.
	Tests []TestCoverage `json:"tests"`
}

// Test returns the coverage entry with the given name, if present.
func (r Result) Test(name string) (TestCoverage, bool) {
	for _, t := range r.Tests {
		if t.Name == name {
			return t, true
		}
	}
	return TestCoverage{}, false
}

// finalize reduces the chunk statistics — strictly in chunk order — to
// the reported Result. It is the single reduction path shared by the
// local, daemon, and cluster-merged runs.
func finalize(part Partial) Result {
	res := Result{
		Cond:   part.Cond,
		Vref:   part.Vref,
		Maps:   part.Maps,
		Seed:   part.Seed,
		Defect: part.Defect,
		Engine: part.Engine,
		Calib:  part.Calib,
		Tests:  make([]TestCoverage, len(part.Tests)),
	}
	tallies := make([]TestTally, len(part.Tests))
	for i, n := range part.Tests {
		tallies[i].Name = n
	}
	h := sha256.New()
	for _, st := range part.Chunks {
		res.Bits += st.Bits
		for c, n := range st.ByClass {
			res.ByClass[c] += n
		}
		h.Write([]byte(st.Digest))
		for i := range tallies {
			tallies[i].merge(st.Tests[i])
		}
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	if part.Maps > 0 {
		res.BitsPerMap = float64(res.Bits) / float64(part.Maps)
	}
	for i, t := range tallies {
		cov := TestCoverage{
			Name:        t.Name,
			Detected:    t.Detected,
			ByClass:     t.ByClass,
			Miscompares: t.Miscompares,
			Dropped:     t.Dropped,
			CleanMaps:   t.CleanMaps,
		}
		if res.Bits > 0 {
			cov.Coverage = float64(t.Detected) / float64(res.Bits)
		}
		res.Tests[i] = cov
	}
	return res
}
