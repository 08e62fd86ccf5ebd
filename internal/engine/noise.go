package engine

import (
	"fmt"
	"math"

	"sramtest/internal/cell"
	"sramtest/internal/process"
	"sramtest/internal/spice"
	"sramtest/internal/sweep"
)

// NoiseStreamBase is the reserved sweep.ChunkSeed stream block of the
// noise criterion's ensembles: member run r of an ensemble draws its
// noise stream from ChunkSeed(Seed, NoiseStreamBase+r). The base sits
// far above the data-chunk streams (yield chunks count from 0, faultmap
// maps from 0 with its CellModel calibration at 1<<30), so criterion
// ensembles can never collide with a consumer's sample streams even
// when both hang off the same master seed. The full registry lives in
// DESIGN.md ("ChunkSeed stream registry").
const NoiseStreamBase = 1 << 31

// NoiseParams are the transient-noise ensemble parameters of the noise
// criterion. All fields are comparable scalars: the struct is part of
// memo keys and, through the canonical job spec, of store keys.
type NoiseParams struct {
	Runs   int     // ensemble members per rail probe
	Sigma  float64 // RMS noise current injected per storage node (A)
	SlotDt float64 // piecewise-constant noise slot width (s)
	Window float64 // observed DS window per member run (s)
	PFail  float64 // flip-fraction threshold defining the effective DRV
	Tol    float64 // bisection tolerance on the effective DRV (V)
	// MaxTighten caps the tightening above the static DRV (V): the
	// effective-DRV bisection searches [static, static+MaxTighten].
	MaxTighten float64
	Seed       int64 // master seed of the reserved ensemble streams
}

// DefaultNoiseParams returns the calibrated ensemble settings.
//
// Sigma is deliberately an ACCELERATED noise magnitude, not the bare
// thermal floor: at these storage-node conductances physical flips are
// rare-event excursions on second-to-year timescales, so — as in the
// accelerated-noise methodology of the dynamic-stability literature —
// the criterion injects a nA-scale aggregate disturbance (thermal +
// supply + substrate) and asks which rails flip within a µs-scale
// window. Calibration on the Table I case studies at FS/1.1 V/125 °C:
// CS5-1 (static DRV 0.420 V) flips ≥ half its ensemble up to ~55 mV
// above the static DRV, while the strong-margin CS1-1 (0.726 V)
// tightens by only a few mV — the near-DRV divergence case EXP-NS and
// the noise-smoke CI gate pin.
func DefaultNoiseParams() NoiseParams {
	return NoiseParams{
		Runs:       8,
		Sigma:      2e-9,
		SlotDt:     1e-6,
		Window:     4e-5,
		PFail:      0.5,
		Tol:        2e-3,
		MaxTighten: 0.15,
		Seed:       2013,
	}
}

// Validate reports whether the parameters can run an ensemble at all.
// The jobs/spec boundary and the noisescan sweep validate through it.
func (p NoiseParams) Validate() error { return p.valid() }

// valid reports whether the parameters can run an ensemble at all.
func (p NoiseParams) valid() error {
	switch {
	case p.Runs <= 0:
		return fmt.Errorf("engine: noise Runs %d, want > 0", p.Runs)
	case p.Sigma <= 0:
		return fmt.Errorf("engine: noise Sigma %g, want > 0", p.Sigma)
	case p.SlotDt <= 0 || p.Window < p.SlotDt:
		return fmt.Errorf("engine: noise SlotDt %g / Window %g, want 0 < SlotDt <= Window", p.SlotDt, p.Window)
	case p.PFail <= 0 || p.PFail > 1:
		return fmt.Errorf("engine: noise PFail %g, want in (0,1]", p.PFail)
	case p.Tol <= 0 || p.MaxTighten <= 0:
		return fmt.Errorf("engine: noise Tol %g / MaxTighten %g, want > 0", p.Tol, p.MaxTighten)
	}
	return nil
}

// NoiseCriterion is the dynamic retention criterion: the effective DRV
// is the lowest rail whose noisy-transient ensemble keeps the flip
// fraction below PFail, found by bisection over [static DRV, static DRV
// + MaxTighten] with common random numbers (every rail probe reuses the
// same member streams, making the flip fraction effectively monotone in
// the rail and the bisection deterministic).
type NoiseCriterion struct {
	P    NoiseParams
	name string
}

// NewNoiseCriterion builds the criterion; invalid parameters panic (they
// are validated at the jobs/spec boundary, so reaching here with bad
// values is a programming error).
func NewNoiseCriterion(p NoiseParams) *NoiseCriterion {
	if err := p.valid(); err != nil {
		panic(err)
	}
	return &NoiseCriterion{
		P: p,
		name: fmt.Sprintf("noise.v1(runs=%d,sigma=%g,slot=%g,window=%g,pfail=%g,tol=%g,max=%g,seed=%d)",
			p.Runs, p.Sigma, p.SlotDt, p.Window, p.PFail, p.Tol, p.MaxTighten, p.Seed),
	}
}

// Name implements Criterion. Every parameter that changes answers is in
// the spelling, so two differently-tuned noise criteria never share a
// cache line.
func (n *NoiseCriterion) Name() string { return n.name }

// MaxTighten implements Criterion.
func (n *NoiseCriterion) MaxTighten() float64 { return n.P.MaxTighten }

// noiseKey identifies one effective-DRV evaluation.
type noiseKey struct {
	v    process.Variation
	cond process.Condition
	p    NoiseParams
}

// noiseCache memoizes the ensemble bisections process-wide, mirroring
// the static drvCache. The computation inside is deterministic (common
// random numbers, sequential warm chain), so first-caller races are
// harmless.
var noiseCache sweep.Cache[noiseKey, float64]

// ResetNoiseCache drops the memoized effective DRVs (test hygiene).
func ResetNoiseCache() { noiseCache.Reset() }

// DRV1 implements Criterion: the noise-tightened stored-'1' threshold,
// memoized per (variation, condition, params).
func (n *NoiseCriterion) DRV1(v process.Variation, cond process.Condition) float64 {
	r, _ := noiseCache.Do(noiseKey{v: v, cond: cond, p: n.P}, func() (float64, error) {
		return EffectiveDRV1(v, cond, n.P, spice.DefaultOptions()), nil
	})
	return r
}

// DRV0 implements Criterion via the cell's mirror symmetry: the DS
// netlist holding a '0' under variation v is the stored-'1' netlist
// under the mirrored variation (the same identity the static oracle and
// Table I rely on).
func (n *NoiseCriterion) DRV0(v process.Variation, cond process.Condition) float64 {
	return n.DRV1(v.Mirror(), cond)
}

// LostDC implements Criterion. At dwells long enough to contain the
// ensemble window the decision is the tightened threshold itself: noise
// flips anything below the effective DRV within ~Window, which includes
// the statically-lost region (noise only accelerates a flip the DC
// physics already drives). Dwells shorter than the window cannot see a
// noise-induced flip, so the static criterion decides — keeping the
// criterion monotone in the rail in both regimes.
func (n *NoiseCriterion) LostDC(c *CellCrit, v, dwell float64) bool {
	if dwell >= n.P.Window {
		return v < c.EffDRV1()
	}
	return Static{}.LostDC(c, v, dwell)
}

// NoiseSim runs noisy deep-sleep transients on one cell variation at one
// condition, recycling the netlist, solver workspace, waveform and
// solution buffers across member runs. Not safe for concurrent use —
// one per worker, like every solver-owning object in the repo.
type NoiseSim struct {
	ds   *cell.DSCircuit
	opt  spice.Options
	bias *spice.Solution // stored-'1' bias seed, reused when the warm chain breaks
	warm spice.Solution  // last good operating point (warm chain)
	fin  spice.Solution
	wf   spice.Waveform
	spec spice.TranSpec
	rec  [2]spice.NodeID

	warmOK bool
}

// NewNoiseSim builds the simulator for one (variation, condition) with
// explicit solver options (Options.ColdStart cuts every warm chain, the
// ablation the noise benchmark measures).
func NewNoiseSim(v process.Variation, cond process.Condition, p NoiseParams, opt spice.Options) *NoiseSim {
	ds := cell.New(v, cond).DSCircuit(p.Sigma, p.SlotDt)
	s := &NoiseSim{
		ds:   ds,
		opt:  opt,
		bias: ds.BiasStored1(),
		spec: spice.TranSpec{TStop: p.Window, DtMax: p.SlotDt},
		rec:  [2]spice.NodeID{ds.S, ds.SN},
	}
	s.spec.Record = s.rec[:]
	return s
}

// ResetWarm cuts the warm-start chain, so the next run's operating point
// is solved from the stored-'1' bias. Chunked consumers call it at every
// chunk boundary: a chunk's results must not depend on which chunks the
// same worker happened to process before (the shard/worker byte-identity
// contract).
func (s *NoiseSim) ResetWarm() { s.warmOK = false }

// Run executes one noisy DS window at rail vdd with the member's noise
// stream seed and reports whether the stored '1' flipped, and when
// (+Inf when it survived). A rail that cannot even hold the datum at DC
// counts as flipped at t = 0. The flip test compares the storage nodes
// at the recorded samples — deterministic for a fixed (vdd, seed,
// options) regardless of warm-chain history, because the operating
// point is verified to be the stored-'1' point before the transient
// starts.
func (s *NoiseSim) Run(vdd float64, seed int64, window float64) (flipped bool, flipT float64, err error) {
	s.ds.Supply.V = vdd
	seedSol := s.bias
	if s.warmOK && !s.opt.ColdStart {
		seedSol = &s.warm
	} else {
		s.bias.SetV(s.ds.S, vdd)
	}
	if err := spice.OPInto(s.ds.Ckt, seedSol, s.opt, &s.warm); err != nil {
		// No DC point at this rail: the cell collapsed outright.
		s.warmOK = false
		return true, 0, nil
	}
	if s.warm.V(s.ds.S) <= s.warm.V(s.ds.SN) {
		// The solver landed in the flipped (or metastable) lobe: the rail
		// is below the static collapse point. Don't warm-chain a collapsed
		// point into later, higher-rail runs — it could drag them into the
		// wrong lobe and break the warm-start equivalence contract.
		s.warmOK = false
		return true, 0, nil
	}
	s.warmOK = true

	s.ds.NoiseS.Seed = sweep.ChunkSeed(seed, 0)
	s.ds.NoiseSN.Seed = sweep.ChunkSeed(seed, 1)
	spec := s.spec
	if window > 0 {
		spec.TStop = window
	}
	if err := spice.TranInto(s.ds.Ckt, &s.warm, spec, s.opt, &s.wf, &s.fin); err != nil {
		return false, 0, fmt.Errorf("engine: noise ensemble transient at vdd=%g: %w", vdd, err)
	}
	spice.AddEnsembleStats(1, int64(len(s.wf.Time)-1))
	sNode, snNode := s.wf.Signals[0], s.wf.Signals[1]
	for i := range s.wf.Time {
		if snNode[i] >= sNode[i] {
			return true, s.wf.Time[i], nil
		}
	}
	return false, math.Inf(1), nil
}

// FlipFraction runs the criterion's full ensemble at rail vdd and
// returns the flipped fraction. Member run r uses the reserved stream
// ChunkSeed(p.Seed, NoiseStreamBase+r) — the same streams at every rail
// (common random numbers).
func FlipFraction(s *NoiseSim, p NoiseParams, vdd float64) (float64, error) {
	flips := 0
	for r := 0; r < p.Runs; r++ {
		f, _, err := s.Run(vdd, sweep.ChunkSeed(p.Seed, NoiseStreamBase+r), p.Window)
		if err != nil {
			return 0, err
		}
		if f {
			flips++
		}
	}
	return float64(flips) / float64(p.Runs), nil
}

// EffectiveDRV1 computes the noise-tightened stored-'1' threshold for
// one variation at one condition, without the memo and with explicit
// solver options — the ColdStart ablation hook the noise benchmark
// uses. The bisection runs sequentially on one NoiseSim, warm-chaining
// operating points across rail probes; with common random numbers the
// whole computation is a pure function of (v, cond, p, opt.ColdStart).
//
// An ensemble transient error (a stalled integrator) is a solver-domain
// bug, not a data condition, and panics like the cell model's node
// solver does.
func EffectiveDRV1(v process.Variation, cond process.Condition, p NoiseParams, opt spice.Options) float64 {
	if err := p.valid(); err != nil {
		panic(err)
	}
	static := CachedDRV1(v, cond)
	sim := NewNoiseSim(v, cond, p, opt)
	fails := func(rail float64) bool {
		frac, err := FlipFraction(sim, p, rail)
		if err != nil {
			panic(err)
		}
		return frac >= p.PFail
	}
	lo, hi := static, static+p.MaxTighten
	if !fails(lo) {
		// The noise cannot push this cell over even at its static limit:
		// no tightening.
		return static
	}
	if fails(hi) {
		// Tightening saturates the cap; report the cap (conservative).
		return hi
	}
	for hi-lo > p.Tol {
		mid := 0.5 * (lo + hi)
		if fails(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
