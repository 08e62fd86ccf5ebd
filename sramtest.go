// Package sramtest is a test-solution toolkit for data retention faults in
// low-power SRAMs, reproducing Zordan et al., "Test Solution for Data
// Retention Faults in Low-Power SRAMs" (DATE 2013, DOI
// 10.7873/DATE.2013.099) as a self-contained Go library.
//
// The library spans the paper's whole methodology:
//
//   - an analog circuit simulator (internal/spice) with EKV MOSFET models
//     (internal/device) under PVT and local-variation control
//     (internal/process);
//   - 6T core-cell stability analysis — butterfly/SNM, retention voltages
//     DRV_DS0/DRV_DS1, flip dynamics (internal/cell);
//   - the embedded voltage regulator with the paper's 32 resistive-open
//     defect injection sites (internal/regulator) and its leakage load
//     (internal/power);
//   - defect characterization: minimal DRF-causing resistance per defect,
//     case study and PVT condition — Table II (internal/charac);
//   - a behavioral 4K×64 low-power SRAM with power modes and fault
//     injection (internal/sram, internal/fault);
//   - March tests incl. the paper's March m-LZ and its baselines
//     (internal/march);
//   - the optimized 3-iteration production test flow — Table III
//     (internal/testflow);
//   - ready-made experiment drivers regenerating every table and figure
//     (internal/exp), used by the cmd/ tools and the benchmarks.
//
// This facade re-exports the stable entry points; see the examples/
// directory for end-to-end usage.
package sramtest

import (
	"context"

	"sramtest/internal/bist"
	"sramtest/internal/cell"
	"sramtest/internal/charac"
	"sramtest/internal/diag"
	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe" // the simulation backend
	"sramtest/internal/faultmap"
	"sramtest/internal/march"
	"sramtest/internal/power"
	"sramtest/internal/process"
	"sramtest/internal/psw"
	"sramtest/internal/regulator"
	"sramtest/internal/sram"
	"sramtest/internal/testflow"
	"sramtest/internal/yield"
)

// Core PVT and variation types.
type (
	// Condition is one PVT point (corner, supply, temperature).
	Condition = process.Condition
	// Corner is a global process corner (TT/SS/FF/FS/SF).
	Corner = process.Corner
	// Variation is a per-transistor local ΔVth assignment of a 6T cell,
	// in sigma multiples with the paper's signed convention.
	Variation = process.Variation
	// CaseStudy is one of Table I's variation scenarios.
	CaseStudy = process.CaseStudy
	// CellTransistor names one of the six core-cell transistors.
	CellTransistor = process.CellTransistor
)

// Process corners.
const (
	TT = process.TT
	SS = process.SS
	FF = process.FF
	FS = process.FS
	SF = process.SF
)

// Cell transistors (paper Fig. 3).
const (
	MPcc1 = process.MPcc1
	MNcc1 = process.MNcc1
	MPcc2 = process.MPcc2
	MNcc2 = process.MNcc2
	MNcc3 = process.MNcc3
	MNcc4 = process.MNcc4
)

// PVTGrid returns the paper's full 45-point PVT grid.
func PVTGrid() []Condition { return process.Grid() }

// Nominal returns the typical-corner nominal condition (1.1 V, 25 °C).
func Nominal() Condition { return process.Nominal() }

// Table1CaseStudies returns the paper's ten Table I scenarios.
func Table1CaseStudies() []CaseStudy { return process.Table1CaseStudies() }

// WorstCaseVariation returns the theoretical worst case for retention of
// a stored '1' (all six transistors at 6σ, paper §III.B).
func WorstCaseVariation() Variation { return process.WorstCase1() }

// Cell-level stability analysis.
type (
	// Cell is a 6T core-cell model at one PVT condition.
	Cell = cell.Cell
	// DRVResult is a worst-case-over-PVT retention voltage measurement.
	DRVResult = cell.DRVResult
)

// NewCell builds a core-cell with the given variation at a condition.
func NewCell(v Variation, cond Condition) *Cell { return cell.New(v, cond) }

// WorstDRV returns the retention voltages of a variation scenario
// maximized over the retention-relevant PVT grid (Table I methodology).
func WorstDRV(v Variation) DRVResult {
	return cell.WorstDRV(v, cell.DRVConditions())
}

// Regulator and defects.
type (
	// Defect identifies one of the 32 resistive-open injection sites.
	Defect = regulator.Defect
	// DefectInfo describes a site (branch, category, description).
	DefectInfo = regulator.Info
	// VrefLevel selects one of the regulator's four reference taps.
	VrefLevel = regulator.VrefLevel
	// Regulator is the voltage-regulator circuit model.
	Regulator = regulator.Regulator
)

// DefectCategory is the §IV.B impact classification of a defect.
type DefectCategory = regulator.Category

// Defect categories.
const (
	CategoryNegligible = regulator.Negligible
	CategoryPower      = regulator.Power
	CategoryDRF        = regulator.DRF
	CategoryBoth       = regulator.Both
)

// NewRegulator builds the embedded voltage regulator at a PVT condition,
// loaded with the core-cell array's leakage and configured with the
// paper's per-VDD reference selection. Inject defects with InjectDefect
// and solve with SolveDS/DSEntry.
func NewRegulator(cond Condition) *Regulator {
	pm := power.NewModel(cond)
	r := regulator.Build(cond, pm.LoadFunc(), regulator.DefaultParams())
	r.SetVref(regulator.SelectFor(cond.VDD))
	return r
}

// AllDefects returns Df1..Df32.
func AllDefects() []Defect { return regulator.All() }

// DRFDefects returns the 17 defects that can cause retention faults
// (Table II's rows).
func DRFDefects() []Defect { return regulator.DRFCandidates() }

// DefectOf returns the description of a defect site.
func DefectOf(d Defect) DefectInfo { return regulator.Lookup(d) }

// Characterization (Table II).
type (
	// CharacOptions tunes a characterization run.
	CharacOptions = charac.Options
	// CharacResult is one Table II cell.
	CharacResult = charac.Result
)

// DefaultCharacOptions mirrors the paper's setup (full PVT grid, 1 ms
// dwell).
func DefaultCharacOptions() CharacOptions { return charac.DefaultOptions() }

// CharacterizeDefect finds the minimal DRF-causing resistance of a defect
// for a case study over the options' PVT sweep.
func CharacterizeDefect(d Defect, cs CaseStudy, opt CharacOptions) (CharacResult, error) {
	return charac.CharacterizeDefect(d, cs, opt)
}

// Simulation engine (DESIGN.md §5.9). Every sweep option struct carries
// an optional SimEngine; nil selects the exact SPICE backend.
type (
	// SimEngine is the simulation backend seam; "spice" (exact) is the
	// one registered backend.
	SimEngine = engine.Engine
	// EngineStats are the static-DRV memo counters.
	EngineStats = engine.EngineStats
)

// EngineNames lists the registered backends ("spice").
func EngineNames() []string { return engine.Names() }

// ResolveEngine looks a backend up by name; the empty name resolves to
// the exact "spice" backend.
func ResolveEngine(name string) (SimEngine, error) { return engine.Resolve(name) }

// EngineStatsNow snapshots the engine counters.
func EngineStatsNow() EngineStats { return engine.Stats() }

// Behavioral SRAM.
type (
	// SRAM is the behavioral 4K×64 low-power memory.
	SRAM = sram.SRAM
	// RetentionModel decides deep-sleep cell survival.
	RetentionModel = sram.RetentionModel
)

// NewSRAM returns a fault-free SRAM in ACT mode.
func NewSRAM() *SRAM { return sram.New() }

// NewElectricalRetention builds a retention model backed by the full
// electrical chain (regulator + cell analysis) with an injected defect;
// use resistance 0 for a fault-free regulator.
func NewElectricalRetention(cond Condition, d Defect, resistance float64) (RetentionModel, error) {
	return sram.NewElectricalRetention(cond, d, resistance)
}

// NewThresholdRetention builds the lightweight analytic retention model
// (fixed rail voltage, static DRV criterion).
func NewThresholdRetention(cond Condition, vreg float64) RetentionModel {
	return sram.NewThresholdRetention(cond, vreg)
}

// March testing.
type (
	// MarchTest is a March algorithm.
	MarchTest = march.Test
	// MarchReport is the outcome of one March run.
	MarchReport = march.Report
)

// MarchMLZ returns the paper's March m-LZ (5N+4).
func MarchMLZ() MarchTest { return march.MarchMLZ() }

// MarchLZ returns the predecessor March LZ (light-sleep based).
func MarchLZ() MarchTest { return march.MarchLZ() }

// MarchLibrary returns all implemented March algorithms, baselines first.
func MarchLibrary() []MarchTest { return march.Library() }

// RunMarch executes a March test against a memory (typically *SRAM).
func RunMarch(t MarchTest, m march.Memory) (MarchReport, error) {
	return march.Run(t, m)
}

// ParseMarchTest parses a March algorithm from van-de-Goor notation, e.g.
// "{⇕(w1); DSM; WUP; ⇑(r1,w0,r0); DSM; WUP; ⇑(r0)}" (ASCII aliases
// up/dn/ud accepted for the arrows).
func ParseMarchTest(name, src string) (MarchTest, error) {
	return march.ParseTest(name, src)
}

// BIST engine (the on-chip embodiment of the test solution).
type (
	// BISTProgram is compiled March microcode.
	BISTProgram = bist.Program
	// BISTController is the cycle-accurate engine.
	BISTController = bist.Controller
	// BISTResult is a completed BIST run.
	BISTResult = bist.Result
)

// CompileBIST compiles a March test for the BIST engine at the SRAM's
// access cycle time.
func CompileBIST(t MarchTest) (*BISTProgram, error) {
	return bist.Compile(t, sram.CycleTime)
}

// NewBIST builds a controller over a compiled program and a memory.
func NewBIST(p *BISTProgram, m march.Memory) *BISTController {
	return bist.New(p, m)
}

// PowerSwitchNetwork models the SRAM's segmented power-switch network and
// its control-chain defects (the March LZ fault class).
type PowerSwitchNetwork = psw.Network

// NewPowerSwitchNetwork returns an intact 16-segment network.
func NewPowerSwitchNetwork() *PowerSwitchNetwork { return psw.New() }

// Flow optimization (Table III).
type (
	// Flow is an optimized production test flow.
	Flow = testflow.Flow
	// FlowMeasureOptions configures the sensitivity measurement.
	FlowMeasureOptions = testflow.MeasureOptions
)

// DefaultFlowMeasureOptions mirrors the paper's setup.
func DefaultFlowMeasureOptions() FlowMeasureOptions { return testflow.DefaultMeasureOptions() }

// OptimizeFlow measures per-condition defect sensitivities and derives
// the minimal iteration set covering every detectable defect, with the
// paper's constraints (fault-free rail above worstDRV, one iteration per
// supply voltage).
func OptimizeFlow(opt FlowMeasureOptions, worstDRV float64) (Flow, error) {
	sens, err := testflow.Measure(opt)
	if err != nil {
		return Flow{}, err
	}
	return testflow.Optimize(sens, testflow.DefaultOptimizeOptions(worstDRV)), nil
}

// Rare-event yield estimation (DESIGN.md §5.11): P(DRV_DS > Vref) at
// 5-6σ tail depths via mean-shifted importance sampling or statistical
// blockade, orders of magnitude cheaper than naive Monte-Carlo at
// matched confidence.
type (
	// YieldEstimator is a rare-event tail estimator ("is" or "blockade").
	YieldEstimator = yield.Estimator
	// YieldParams configures one estimate (condition, Vref, samples, seed).
	YieldParams = yield.Params
	// YieldResult is a completed estimate with its 95% CI and solve economy.
	YieldResult = yield.Result
	// YieldPartial is one shard's mergeable contribution to an estimate.
	YieldPartial = yield.Partial
	// YieldStats are the cumulative yield counters the daemon exports.
	YieldStats = yield.YieldStats
)

// NewYieldEstimator resolves an estimator by method name; the empty
// name selects mean-shifted importance sampling.
func NewYieldEstimator(method string) (YieldEstimator, error) { return yield.New(method) }

// YieldMethods lists the registered estimator names.
func YieldMethods() []string { return yield.Methods() }

// MergeYieldPartials reassembles shard partials into the estimate a
// single-shard run of the same parameters would produce, byte for byte.
func MergeYieldPartials(parts []YieldPartial) (YieldResult, error) {
	return yield.MergePartials(parts)
}

// YieldStatsNow snapshots the cumulative yield counters.
func YieldStatsNow() YieldStats { return yield.Stats() }

// Array-scale correlated fault maps and March coverage evaluation
// (DESIGN.md §5.12): whole-array fault populations with DRV-calibrated
// retention-fault marginals and streak/cluster spatial correlation,
// scored against the March library — the statistical complement of the
// one-fault-at-a-time diagnosis flows.
type (
	// FaultMap is one sampled whole-array fault population.
	FaultMap = faultmap.Map
	// FaultMapParams configures a corpus and its coverage evaluation.
	FaultMapParams = faultmap.Params
	// FaultMapGenerator deterministically regenerates any map of a corpus.
	FaultMapGenerator = faultmap.Generator
	// FaultMapResult is a completed corpus coverage evaluation.
	FaultMapResult = faultmap.Result
	// FaultMapPartial is one shard's mergeable contribution.
	FaultMapPartial = faultmap.Partial
	// FaultMapStats are the cumulative faultmap counters the daemon exports.
	FaultMapStats = faultmap.FaultMapStats
)

// NewFaultMapGenerator calibrates the DRF marginal from the cell-level
// DRV distribution and returns the corpus generator.
func NewFaultMapGenerator(p FaultMapParams) (*FaultMapGenerator, error) {
	return faultmap.NewGenerator(p)
}

// EstimateFaultMapCoverage generates the corpus and evaluates every
// configured test against it; the result is byte-identical at any
// worker count.
func EstimateFaultMapCoverage(ctx context.Context, p FaultMapParams) (FaultMapResult, error) {
	return faultmap.Estimate(ctx, p)
}

// MergeFaultMapPartials reassembles shard partials into the result a
// single-shard run of the same parameters would produce, byte for byte.
func MergeFaultMapPartials(parts []FaultMapPartial) (FaultMapResult, error) {
	return faultmap.MergePartials(parts)
}

// FaultMapStatsNow snapshots the cumulative faultmap counters.
func FaultMapStatsNow() FaultMapStats { return faultmap.Stats() }

// Fault-dictionary defect diagnosis: from the failure signature the
// optimized flow observes on a failing device back to the causing
// regulator defect.
type (
	// FaultDictionary maps candidate (defect, resistance, case study)
	// hypotheses to their March m-LZ failure signatures; its Match and
	// Refine methods perform the diagnosis.
	FaultDictionary = diag.Dictionary
	// DiagCandidate is one diagnosable hypothesis.
	DiagCandidate = diag.Candidate
	// DiagOptions configures dictionary construction and observation.
	DiagOptions = diag.Options
	// DiagSignature is an observed multi-condition failure signature.
	DiagSignature = diag.Signature
	// DiagObserver supplies device signatures at extra test conditions
	// during adaptive refinement.
	DiagObserver = diag.Observer
)

// DefaultDiagOptions mirrors the paper's production-test setup (fs
// corner, 125 °C, 1 ms dwell, the optimized three-condition flow).
func DefaultDiagOptions() DiagOptions { return diag.DefaultOptions() }

// BuildFaultDictionary simulates every candidate at every flow (and
// refinement) condition; the result is identical at any worker count.
func BuildFaultDictionary(opt DiagOptions) (*FaultDictionary, error) { return diag.Build(opt) }

// LoadFaultDictionary reads a dictionary artifact written by
// (*FaultDictionary).Save or `diagnose build`.
func LoadFaultDictionary(path string) (*FaultDictionary, error) { return diag.Load(path) }

// ObserveDiagSignature simulates the optimized flow on a device carrying
// the candidate defect — the signature a failing part presents to
// (*FaultDictionary).Match.
func ObserveDiagSignature(opt DiagOptions, cand DiagCandidate) (DiagSignature, error) {
	return diag.BuildSignature(opt, cand)
}
