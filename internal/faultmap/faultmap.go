// Package faultmap generates array-scale correlated fault maps of the
// 4K×64 SRAM and evaluates March-test coverage against them — the
// statistical complement of internal/diag's one-fault-at-a-time view.
//
// A fault map assigns every bit of the array a fault class: none, a
// deep-sleep data retention fault of either polarity (DRF0/DRF1), a
// stuck-at or transition fault, or an idempotent coupling fault. The
// marginal DRF probability is calibrated from the cell-level DRV
// distribution at the map's (corner, VDD, temperature) condition and
// deep-sleep retention rail, exactly the quantity internal/yield
// estimates at tail depth; static defect rates follow a voltage-
// acceleration law. On top of the marginals sits a MoRS-style spatial
// correlation model: shared-wordline and shared-bitline streaks (one
// weak row or column lifts every cell on it) and compact weak-bit
// clusters, reflecting that real retention failures arrive in spatially
// correlated groups, not i.i.d. salt-and-pepper.
//
// The coverage evaluator runs March algorithms (the software executor
// or the compiled BIST engine) and optional constrained-random streams
// against whole maps and aggregates per-class detection into corpus
// coverage statistics — the experiment behind EXPERIMENTS.md EXP-FM:
// March m-LZ detects both DRF polarities by construction, while
// dwell-free baselines (and the light-sleep March LZ) escape every DRF.
//
// Determinism: map m draws from its own rand stream seeded by
// sweep.ChunkSeed(Seed, m), maps are grouped into fixed chunks of
// MapChunk for sharding and statistics, and chunk stats reduce strictly
// in chunk order — so every corpus and every coverage number is a pure
// function of the Params: byte-identical at any worker count, across
// the CLI and the daemon, and across a cluster shard fan-out merged by
// MergePartials (the internal/yield contract, applied to maps).
package faultmap

import (
	"errors"
	"fmt"

	"sramtest/internal/engine"
	"sramtest/internal/march"
	"sramtest/internal/process"
	"sramtest/internal/shard"
)

// Defaults and protocol constants.
const (
	// DefaultSeed matches the repo-wide fixed Monte-Carlo seed.
	DefaultSeed = 2013
	// DefaultMaps is the default corpus size: large enough for stable
	// per-class coverage at the default defect rates, in seconds.
	DefaultMaps = 256
	// DefaultVref is the default deep-sleep retention rail of a map: a
	// what-if Vreg of 400 mV, far enough below the paper's 740 mV
	// deep-sleep reference that the calibrated DRV tail yields a
	// workable per-bit DRF probability (a rail at the paper's nominal
	// Vreg produces maps with essentially no retention fault, which is
	// the point of the paper but not of a coverage experiment).
	DefaultVref = 0.40 // V
	// DefaultDefect is the default per-bit, per-class probability of a
	// static manufacturing defect (stuck-at, transition, coupling)
	// before voltage acceleration and spatial boosts: a few defective
	// bits per 256 Kb map.
	DefaultDefect = 2e-5
	// MapChunk is the number of maps grouped into one statistics chunk.
	// Sharding is by chunk — shard s of k owns the chunks with index
	// ≡ s (mod k) — but each map still has its own derived rand stream,
	// so the corpus is a pure function of (Maps, Seed) at any worker or
	// shard count.
	MapChunk = 8
	// MaxMaps caps one corpus; far above any experiment, far below the
	// calibChunk reservation.
	MaxMaps = 1 << 20
	// calibChunk is the reserved ChunkSeed index of the calibration
	// sampling stream, disjoint from every map index by the MaxMaps cap.
	calibChunk = 1 << 30
)

// ErrBadParams marks parameter validation failures.
var ErrBadParams = errors.New("faultmap: invalid params")

// Class is the per-bit fault class of a map.
type Class uint8

// The fault classes a map assigns. DRF0/DRF1 lose a stored 0/1 over a
// deep-sleep dwell (the paper's DRF_DS, polarity-resolved); the static
// classes reuse the internal/fault functional models.
const (
	ClassNone Class = iota
	ClassDRF0
	ClassDRF1
	ClassSAF0
	ClassSAF1
	ClassTFUp
	ClassTFDown
	ClassCF
	NumClasses int = iota
)

// String implements fmt.Stringer.
func (c Class) String() string {
	names := [...]string{"none", "DRF0", "DRF1", "SAF0", "SAF1", "TFUp", "TFDown", "CF"}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Group returns the reporting group of the class: "DRF", "SAF", "TF",
// "CF", or "" for ClassNone.
func (c Class) Group() string {
	switch c {
	case ClassDRF0, ClassDRF1:
		return "DRF"
	case ClassSAF0, ClassSAF1:
		return "SAF"
	case ClassTFUp, ClassTFDown:
		return "TF"
	case ClassCF:
		return "CF"
	}
	return ""
}

// Groups lists the reporting groups in table order.
func Groups() []string { return []string{"DRF", "TF", "SAF", "CF"} }

// GroupClasses returns the classes of one reporting group.
func GroupClasses(group string) []Class {
	switch group {
	case "DRF":
		return []Class{ClassDRF0, ClassDRF1}
	case "SAF":
		return []Class{ClassSAF0, ClassSAF1}
	case "TF":
		return []Class{ClassTFUp, ClassTFDown}
	case "CF":
		return []Class{ClassCF}
	}
	return nil
}

// Model is the DRV response surface behind the calibration: the
// stored-'1' retention voltage as a function of local variation (the
// stored-'0' side follows by mirror symmetry). Tests inject synthetic
// models with analytically known distributions; production runs use
// CellModel.
type Model interface {
	DRV1(v process.Variation, cond process.Condition) float64
}

// CellModel is the exact production model: the cell-level DRV
// bisection, answered through the process-wide engine memo so the
// shards of one corpus and the rails of a rail curve share one
// calibration.
type CellModel struct{}

// DRV1 implements Model.
func (CellModel) DRV1(v process.Variation, cond process.Condition) float64 {
	return engine.CachedDRV1(v, cond)
}

// Engine names for the coverage evaluator.
const (
	EngineMarch = "march" // software March executor (internal/march)
	EngineBIST  = "bist"  // compiled on-chip BIST engine (internal/bist)
)

// DefaultDwellEvery is the deep-sleep cadence of the canonical random
// stream: one dwell per DefaultDwellEvery operations, frequent enough to
// sensitize retention faults without dominating the stream's test time.
const DefaultDwellEvery = 256

// DefaultRandom is the canonical constrained-random stream of a corpus
// evaluation: ops dwelling operations on the given seed with the
// default op mix. The jobs layer and cmd/faultmap share this spelling
// so equal specs evaluate equal streams.
func DefaultRandom(ops int, seed int64) march.RandomSpec {
	return march.RandomSpec{Ops: ops, Seed: seed, DwellEvery: DefaultDwellEvery}
}

// Params describes one fault-map corpus and its coverage evaluation.
// The zero value is not runnable: Maps must be positive. Workers only
// affects wall-clock time, and Shards/Shard only select a chunk subset
// — neither changes any reported number.
type Params struct {
	// Maps is the corpus size (total across all shards).
	Maps int
	// Seed drives every derived rand stream; 0 selects DefaultSeed.
	Seed int64
	// Cond is the PVT condition of the DRV calibration and the voltage-
	// acceleration reference of the static defect rates.
	Cond process.Condition
	// Vref is the deep-sleep retention rail; a bit whose DRV exceeds it
	// is a retention fault. <= 0 selects DefaultVref.
	Vref float64
	// Defect is the per-bit, per-class base probability of each static
	// fault class; <= 0 selects DefaultDefect.
	Defect float64
	// Tests are the March algorithms to evaluate (nil = march.Library()).
	Tests []march.Test
	// Random are optional constrained-random streams evaluated alongside
	// the March tests (their Seed is combined with each map's own seed,
	// so per-map streams stay independent and deterministic).
	Random []march.RandomSpec
	// Engine selects the evaluation engine ("" = EngineMarch).
	Engine string
	// Workers bounds sweep concurrency (0 = process default).
	Workers int
	// Shards/Shard select a chunk subset for cluster fan-out: shard s of
	// k owns the chunks with index ≡ s (mod k). Shards <= 1 means the
	// whole corpus.
	Shards int
	Shard  int
	// Model overrides the DRV response surface (nil = CellModel).
	Model Model
}

// withDefaults validates p and fills the defaulted fields in.
func (p Params) withDefaults() (Params, error) {
	if p.Maps < 1 {
		return p, fmt.Errorf("%w: maps = %d, want >= 1", ErrBadParams, p.Maps)
	}
	if p.Maps > MaxMaps {
		return p, fmt.Errorf("%w: maps = %d exceeds the %d cap", ErrBadParams, p.Maps, MaxMaps)
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	if p.Vref <= 0 {
		p.Vref = DefaultVref
	}
	if p.Defect <= 0 {
		p.Defect = DefaultDefect
	}
	if p.Tests == nil {
		p.Tests = march.Library()
	}
	switch p.Engine {
	case "":
		p.Engine = EngineMarch
	case EngineMarch, EngineBIST:
	default:
		return p, fmt.Errorf("%w: unknown engine %q (have %q, %q)", ErrBadParams, p.Engine, EngineMarch, EngineBIST)
	}
	if len(p.Tests)+len(p.Random) == 0 {
		return p, fmt.Errorf("%w: no tests to evaluate", ErrBadParams)
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

// TestNames lists the evaluated test names in evaluation order: the
// March tests first, then the random streams. The order is part of the
// merge identity — every shard must evaluate the same list.
func (p Params) TestNames() ([]string, error) {
	names := make([]string, 0, len(p.Tests)+len(p.Random))
	seen := map[string]bool{}
	for _, t := range p.Tests {
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		names = append(names, t.Name)
	}
	for _, r := range p.Random {
		rr, err := r.WithDefaults()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		names = append(names, rr.Name)
	}
	for _, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("%w: duplicate test name %q", ErrBadParams, n)
		}
		seen[n] = true
	}
	return names, nil
}
