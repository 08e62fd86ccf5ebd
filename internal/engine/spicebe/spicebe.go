// Package spicebe is the exact simulation backend: the engine seam
// wrapped around the internal/spice Newton solver with the warm-start
// continuation machinery the sweeps always used. Its behaviour is
// bit-identical to the pre-seam characterization and diagnosis paths —
// it IS those paths, relocated behind the Engine interface — and it is
// the one registered backend ("spice").
package spicebe

import (
	"math"
	"sync"

	"sramtest/internal/engine"
	"sramtest/internal/power"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/spice"
	"sramtest/internal/sram"
)

func init() { engine.Register("spice", func() engine.Engine { return New() }) }

// Engine is the exact SPICE-backed engine. Stateless — all per-condition
// state lives in the Evals — so one instance serves any number of
// concurrent sweeps.
type Engine struct{ engine.DRVOracle }

// New returns the exact backend.
func New() *Engine { return &Engine{} }

// Name implements engine.Engine.
func (*Engine) Name() string { return "spice" }

// pool recycles regulator netlists per condition (moved here from
// internal/diag). Building the ~60-element netlist dominates the
// allocation profile of a dictionary build, and an Eval owns its
// regulator only between Eval and Release, so instances can be handed
// from worker to worker. Reuse is exact: every piece of state an
// earlier evaluation may have touched is reset on the way in.
var pool = struct {
	sync.Mutex
	free map[process.Condition][]*regulator.Regulator
}{free: map[process.Condition][]*regulator.Regulator{}}

func getRegulator(cond process.Condition) *regulator.Regulator {
	pool.Lock()
	if list := pool.free[cond]; len(list) > 0 {
		r := list[len(list)-1]
		pool.free[cond] = list[:len(list)-1]
		pool.Unlock()
		return r
	}
	pool.Unlock()
	return regulator.Build(cond, power.NewModel(cond).LoadFunc(), regulator.DefaultParams())
}

func putRegulator(cond process.Condition, r *regulator.Regulator) {
	pool.Lock()
	pool.free[cond] = append(pool.free[cond], r)
	pool.Unlock()
}

// Eval implements engine.Engine: it prepares a per-condition context
// with a pooled regulator set to the requested reference level.
func (g *Engine) Eval(cond process.Condition, level regulator.VrefLevel, sopt spice.Options, crit engine.Criterion) (engine.Eval, error) {
	reg := getRegulator(cond)
	reg.ClearDefects()
	reg.SetVref(level)
	return &Eval{cond: cond, level: level, sopt: sopt, crit: engine.PickCriterion(crit), reg: reg, crits: map[string]*engine.CellCrit{}}, nil
}

// Eval is the exact backend's per-condition context. Not safe for
// concurrent use; each sweep worker holds its own.
type Eval struct {
	cond  process.Condition
	level regulator.VrefLevel
	sopt  spice.Options
	crit  engine.Criterion
	reg   *regulator.Regulator
	crits map[string]*engine.CellCrit // per case-study criterion bundle

	// Warm-start chains, one per analysis mode so a search can never
	// seed a DS Newton solve with an ACT point or vice versa. Chain
	// order is a speed knob, never a results knob (the warm-start
	// equivalence contract), so chaining across searches is safe.
	warmDS  *spice.Solution
	warmACT *spice.Solution
}

func (e *Eval) critFor(cs process.CaseStudy) *engine.CellCrit {
	if c, ok := e.crits[cs.Name]; ok {
		return c
	}
	c := engine.NewCellCrit(cs, e.cond, e.crit)
	e.crits[cs.Name] = c
	return c
}

// inject resets the netlist to carry exactly defect d at res (res <= 0
// leaves the netlist fault-free).
func (e *Eval) inject(d regulator.Defect, res float64) {
	e.reg.ClearDefects()
	if res > 0 {
		e.reg.InjectDefect(d, res)
	}
}

// solveDS computes the DS-mode V_DD_CC with the affected cells' extra
// crowbar current folded in by a damped fixed point (DESIGN.md §5.4 —
// keeping the Newton load monotone while still modeling the regenerative
// CS5 effect).
func (e *Eval) solveDS(c *engine.CellCrit, warm *spice.Solution) (v float64, sol *spice.Solution, err error) {
	extra := 0.0
	for i := 0; i < 8; i++ {
		e.reg.SetExtraLoad(extra)
		v, sol, err = e.reg.SolveDSWith(warm, e.sopt)
		if err != nil {
			e.reg.SetExtraLoad(0)
			return 0, nil, err
		}
		warm = sol
		next := c.CrowbarNext(v)
		// Converged, or too small to move the µA-scale operating point.
		if math.Abs(next-extra) < 1e-9 || (i == 0 && next < engine.CrowbarBreak) {
			break
		}
		extra = 0.5*extra + 0.5*next
	}
	e.reg.SetExtraLoad(0)
	return v, sol, nil
}

// lostTransient decides the transient-defect criterion from the DS-entry
// waveform of V_DD_CC. The ACT operating point chains across probes (for
// a transient defect every probe starts from the same ACT
// configuration).
func (e *Eval) lostTransient(c *engine.CellCrit, dwell float64) (bool, error) {
	wf, act, err := e.reg.DSEntryWith(dwell, e.warmACT, e.sopt)
	if err != nil {
		return false, err
	}
	e.warmACT = act
	// Fast path: a supply that never crosses below the static DRV cannot
	// flip the cell — skip the trajectory integration. The criterion seam
	// deliberately does not reach into this waveform decision: transient
	// defects are µs-scale rail excursions, far shorter than the noise
	// criterion's observation window (NoiseCriterion.LostDC likewise
	// falls back to the static rule for dwells shorter than the window).
	if _, min := wf.Min("vddcc"); min >= c.DRV1 {
		return false, nil
	}
	return c.Cell.FlipUnder(wf.Time, wf.Signal("vddcc")), nil
}

// Lost implements engine.Eval: the full DRF criterion for defect d at
// resistance res.
func (e *Eval) Lost(d regulator.Defect, res float64, cs process.CaseStudy, dwell float64) (bool, error) {
	c := e.critFor(cs)
	e.inject(d, res)
	defer e.reg.ClearDefects()
	if regulator.Lookup(d).Transient {
		return e.lostTransient(c, dwell)
	}
	v, sol, err := e.solveDS(c, e.warmDS)
	if err != nil {
		// A non-converged extreme point is treated as data loss: the
		// operating point only fails to exist when the rail collapses.
		return true, nil
	}
	e.warmDS = sol
	return c.LostDC(v, dwell), nil
}

// FaultFreeRail implements engine.Eval: the plain (no extra load)
// deep-sleep rail of the fault-free netlist.
func (e *Eval) FaultFreeRail() (float64, error) {
	e.reg.ClearDefects()
	v, sol, err := e.reg.SolveDSWith(e.warmDS, e.sopt)
	if err != nil {
		return 0, err
	}
	e.warmDS = sol
	return v, nil
}

// Retention implements engine.Eval: the full electrical retention model
// on this Eval's pooled regulator. The model owns the regulator until
// Release, including every lazy Survives decision.
func (e *Eval) Retention(d regulator.Defect, res float64, warm *spice.Solution) (sram.RetentionModel, *spice.Solution, error) {
	ret, err := sram.NewElectricalRetentionReusing(e.reg, e.cond, e.level, d, res, warm, e.sopt)
	if err != nil {
		return nil, nil, err
	}
	return ret, ret.DSSolution(), nil
}

// Release implements engine.Eval: the regulator returns to the pool.
func (e *Eval) Release() {
	if e.reg != nil {
		putRegulator(e.cond, e.reg)
		e.reg = nil
	}
}
