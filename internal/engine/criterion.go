package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"sramtest/internal/cell"
	"sramtest/internal/process"
)

// FlipActivationWidth is the voltage window above a cell's DRV in which
// it already draws partial crowbar current (its noise margin is thin and
// the internal nodes wander toward midpoint). It shapes the activation
// factor of the exact backend's damped fixed point.
const FlipActivationWidth = 0.015 // V

// CrowbarBreak is the extra-load threshold below which the DS fixed
// point exits on its first iteration: a load this small cannot move the
// µA-scale operating point (engine/spicebe mirrors the pre-seam charac
// behaviour exactly).
const CrowbarBreak = 0.5e-6 // A

// Criterion is the pluggable retention-decision seam: given a settled
// deep-sleep rail, does the cell lose its datum? The historical decision
// — below the static DRV and flipping within the dwell — is the Static
// criterion; the noise criterion (NewNoiseCriterion) tightens the
// threshold with stochastic transient ensembles. Everything that is NOT
// the lose/keep decision itself (crowbar activation, the DS fixed
// point's exit rule) stays anchored
// on the static DRV regardless of criterion, so the exact backend's
// operating points — and with them every warm-start chain — are
// byte-identical across criteria.
//
// Implementations are immutable after construction and safe for
// concurrent use; the Name is part of every memo and store key that
// caches criterion-dependent results.
type Criterion interface {
	// Name identifies the criterion, including any parameters that change
	// its answers ("static", "noise.v1(...)").
	Name() string
	// DRV1 is the criterion's effective data-retention voltage for a
	// stored '1': the lowest rail at which the datum survives the
	// criterion's retention model. Never below the static oracle's value.
	DRV1(v process.Variation, cond process.Condition) float64
	// DRV0 is the stored-'0' twin of DRV1.
	DRV0(v process.Variation, cond process.Condition) float64
	// LostDC decides the DC-defect DRF criterion at a settled rail v for
	// the cell bundle c. Must be monotone: a lower rail is never safer.
	LostDC(c *CellCrit, v, dwell float64) bool
	// MaxTighten bounds DRV1 − static DRV1 over all variations and
	// conditions (0 for the static criterion). Characterization reads it
	// to tell a tightening criterion, which may legitimately fail a
	// fault-free cell at a margin-poor condition, from the static one,
	// where such a failure means broken calibration.
	MaxTighten() float64
}

// Static is the paper's original DRF criterion: a datum is lost when the
// settled rail sits below the static DRV (SNM → 0) and the flip
// completes within the DS dwell. It is the default criterion and the
// identity element of the seam — a Static-criterion run is byte-
// identical to the pre-seam code at every layer.
type Static struct{}

// Name implements Criterion.
func (Static) Name() string { return "static" }

// DRV1 implements Criterion via the process-wide static oracle memo.
func (Static) DRV1(v process.Variation, cond process.Condition) float64 {
	return CachedDRV1(v, cond)
}

// DRV0 implements Criterion.
func (Static) DRV0(v process.Variation, cond process.Condition) float64 {
	return CachedDRV0(v, cond)
}

// LostDC implements Criterion: below the static DRV and flipping within
// the dwell.
func (Static) LostDC(c *CellCrit, v, dwell float64) bool {
	if v >= c.DRV1 {
		return false
	}
	return c.Cell.FlipTime(v, dwell) <= dwell
}

// MaxTighten implements Criterion: the static criterion never tightens.
func (Static) MaxTighten() float64 { return 0 }

// CellCrit caches the cell-side quantities of the DRF criterion for one
// (case study, condition): the 6T model, its static DRV, and the
// pluggable decision criterion.
//
// DRV1 is always the STATIC threshold: the crowbar activation and the
// solver-side fixed-point behaviour hang off it and must not move when
// the decision criterion changes. The criterion's (possibly tightened)
// threshold is EffDRV1.
type CellCrit struct {
	CS   process.CaseStudy
	Cell *cell.Cell
	Cond process.Condition
	Crit Criterion
	DRV1 float64 // static DRV of the stored-'1' state at this condition
}

// NewCellCrit builds the criterion bundle, with the static DRV taken
// from the process-wide oracle memo. A nil crit resolves to the process
// default criterion.
func NewCellCrit(cs process.CaseStudy, cond process.Condition, crit Criterion) *CellCrit {
	return &CellCrit{
		CS:   cs,
		Cell: cell.New(cs.Variation, cond),
		Cond: cond,
		Crit: PickCriterion(crit),
		DRV1: CachedDRV1(cs.Variation, cond),
	}
}

// LostDC decides the DC-defect DRF criterion at a settled rail v through
// the pluggable criterion.
func (c *CellCrit) LostDC(v, dwell float64) bool {
	return c.Crit.LostDC(c, v, dwell)
}

// EffDRV1 returns the criterion's effective stored-'1' threshold —
// equal to the static DRV1 field for the Static criterion, tightened
// upward for the noise criterion. Criterion implementations memoize, so
// repeated calls are cheap.
func (c *CellCrit) EffDRV1() float64 {
	return c.Crit.DRV1(c.CS.Variation, c.Cond)
}

// Activation is the soft flip-activation factor at rail v (1 well below
// the DRV, 0 well above). Anchored on the static DRV by design: it
// models the cell's DC crowbar draw, which transient noise does not
// change.
func (c *CellCrit) Activation(v float64) float64 {
	return 1.0 / (1.0 + math.Exp((v-c.DRV1)/FlipActivationWidth*4))
}

// CrowbarNext is the first fixed-point estimate of the case study's
// extra crowbar load at rail v: cells × per-cell crowbar × activation.
func (c *CellCrit) CrowbarNext(v float64) float64 {
	return float64(c.CS.Cells) * c.Cell.CrowbarCurrent(v) * c.Activation(v)
}

// CriterionModel adapts a Criterion to the DRV-model seams of the
// consumers that sample thresholds directly — yield.Params.Model and
// faultmap.Params.Model both accept exactly this shape — so the noise
// criterion tightens the yield boundary and the fault-map DRF marginals
// through one adapter.
type CriterionModel struct {
	Crit Criterion
}

// DRV1 returns the criterion's effective stored-'1' threshold.
func (m CriterionModel) DRV1(v process.Variation, cond process.Condition) float64 {
	return m.Crit.DRV1(v, cond)
}

// criterionCtors maps flag-level criterion names to constructors,
// mirroring the engine registry. The two built-ins are pre-registered;
// the map exists so tests can stub criteria the same way they stub
// engines.
var criterionRegistry = struct {
	sync.Mutex
	ctors map[string]func() Criterion
}{ctors: map[string]func() Criterion{
	"static": func() Criterion { return Static{} },
	"noise":  func() Criterion { return NewNoiseCriterion(DefaultNoiseParams()) },
}}

// RegisterCriterion installs a criterion constructor under a flag-level
// name. Later registrations of the same name win.
func RegisterCriterion(name string, ctor func() Criterion) {
	criterionRegistry.Lock()
	defer criterionRegistry.Unlock()
	criterionRegistry.ctors[name] = ctor
}

// CriterionNames lists the registered criteria, sorted (flag help text).
func CriterionNames() []string {
	criterionRegistry.Lock()
	defer criterionRegistry.Unlock()
	out := make([]string, 0, len(criterionRegistry.ctors))
	for n := range criterionRegistry.ctors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ResolveCriterion constructs the criterion registered under name. The
// empty name resolves to "static" (the pre-seam behaviour, and the
// spelling canonical job specs fold to). Parameterized names are
// accepted too ("noise.v1(...)" matches a registered constructor whose
// Name() agrees), so canonical spellings round-trip.
func ResolveCriterion(name string) (Criterion, error) {
	if name == "" {
		name = "static"
	}
	criterionRegistry.Lock()
	ctor, ok := criterionRegistry.ctors[name]
	criterionRegistry.Unlock()
	if ok {
		return ctor(), nil
	}
	criterionRegistry.Lock()
	ctors := make([]func() Criterion, 0, len(criterionRegistry.ctors))
	for _, c := range criterionRegistry.ctors {
		ctors = append(ctors, c)
	}
	criterionRegistry.Unlock()
	for _, c := range ctors {
		if cr := c(); cr.Name() == name {
			return cr, nil
		}
	}
	return nil, fmt.Errorf("engine: unknown criterion %q (have %v)", name, CriterionNames())
}

// PickCriterion returns c when non-nil, else Static — the paper's
// criterion. Sweep options use it to resolve their Criterion field.
func PickCriterion(c Criterion) Criterion {
	if c != nil {
		return c
	}
	return Static{}
}
