package spice

import (
	"fmt"
	"math"
)

// NoiseSource is a stochastic current source for transient noise
// analysis: a piecewise-constant Gaussian noise current between Pos and
// Neg, redrawn every Dt seconds. It models the aggregate thermal/shot
// noise that makes statically-stable cells flip near their DRV in
// deep-sleep mode (ROADMAP open item 1; PAPERS.md "Variability-Aware
// Noise-Induced Dynamic Instability of Ultra-Low-Voltage SRAM
// Bitcells").
//
// Determinism is the load-bearing property: the value of time slot
// k = floor(t/Dt) is a pure hash of (Seed, k) — no math/rand stream, no
// consumable state — so the injected waveform is a pure function of the
// source's parameters regardless of how the adaptive transient
// integrator slices, rejects or retries its steps. Two runs with the
// same seed produce bit-identical waveforms; ensemble run r simply
// installs a different Seed. That is what lets flip-probability
// estimates satisfy the repo's byte-identity contract across worker
// counts and cluster shard fan-outs.
//
// In DC analyses the source is dark (zero-mean noise does not move the
// operating point), so OP solves and warm-start chains are untouched by
// its presence. Stamping is a bare current injection with no Jacobian
// contribution — within one Newton solve the slot value is a constant —
// and performs no heap allocations, preserving the zero-alloc TranInto
// contract (alloc guard in noise_test.go).
type NoiseSource struct {
	Name     string
	Pos, Neg NodeID
	Sigma    float64 // RMS current (A); current flows Pos→Neg like ISource
	Dt       float64 // noise slot width (s); must be > 0 in transient runs
	Seed     int64   // deterministic stream selector
}

// ElementName implements Element.
func (n *NoiseSource) ElementName() string { return n.Name }

// Terminals implements Element.
func (n *NoiseSource) Terminals() []NodeID { return []NodeID{n.Pos, n.Neg} }

// Stamp implements Element. ModeDC stamps nothing (see the type comment);
// ModeTran injects the slot's current like an ISource.
func (n *NoiseSource) Stamp(ctx *Context) {
	if ctx.Mode != ModeTran || n.Sigma == 0 {
		return
	}
	if n.Dt <= 0 {
		panic(fmt.Sprintf("spice: noise source %s has non-positive slot width %g", n.Name, n.Dt))
	}
	statNoiseEvals.Add(1)
	// The step's end time selects the slot, matching backward Euler's
	// evaluation point. Keeping DtMax at or below Dt bounds the slot
	// boundary smearing by one step.
	i := n.Sigma * NoiseSample(n.Seed, int64(ctx.Time/n.Dt))
	ctx.AddCurrent(n.Pos, i)
	ctx.AddCurrent(n.Neg, -i)
}

// noiseMix is a splitmix64 finalizer, the same construction as
// sweep.ChunkSeed (duplicated here because spice sits below sweep in the
// import order). Like ChunkSeed's, these constants are load-bearing:
// content-addressed noise-job results depend on the exact stream.
func noiseMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NoiseSample returns the standard-normal value of noise slot `slot` of
// stream `seed`: two splitmix64 draws through a Box–Muller transform.
// It is a pure function — the whole determinism story of NoiseSource
// rests on it — and is exported so tests and the engine layer can
// predict injected waveforms exactly.
func NoiseSample(seed, slot int64) float64 {
	base := uint64(seed) + (uint64(slot)+1)*0x9e3779b97f4a7c15
	h1 := noiseMix(base)
	h2 := noiseMix(base + 0x9e3779b97f4a7c15)
	// (h>>11 + 0.5)·2⁻⁵³ lies strictly inside (0,1): log(u1) is finite.
	u1 := (float64(h1>>11) + 0.5) / (1 << 53)
	u2 := (float64(h2>>11) + 0.5) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// AddEnsembleStats accounts one completed transient-ensemble member run
// and its accepted step count to the solver counters. The engine layer's
// noise-criterion runner calls it once per ensemble run; it exists here
// so the counters surface through spice.Stats() next to the Newton
// counters they contextualize (and from there through sramd /metrics).
func AddEnsembleStats(runs, steps int64) {
	statEnsembleRuns.Add(runs)
	statEnsembleSteps.Add(steps)
}
