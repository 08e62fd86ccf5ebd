// Package engine defines the backend-agnostic simulation seam of the
// toolkit (DESIGN.md §5.9): every sweep layer — defect characterization,
// the test-flow optimizer, the diagnosis dictionary — evaluates its DRF
// criteria through an Engine instead of calling the circuit solver
// directly.
//
// One backend implements the seam: engine/spicebe wraps the
// internal/spice Newton solver with the warm-start machinery the sweeps
// always used. The registry lets callers substitute a backend (a test
// stub, or an instrumented wrapper that registers itself under "spice")
// without touching the sweep layers.
//
// The seam is decision-level, not solve-level: an Eval answers "does this
// defect at this resistance lose the datum?" rather than "what is node
// 17's voltage?".
package engine

import (
	"fmt"
	"sort"
	"sync"

	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/spice"
	"sramtest/internal/sram"
)

// Engine is one simulation backend. Engines are safe for concurrent use;
// per-condition state lives in the Evals they hand out.
type Engine interface {
	// Name identifies the backend ("spice"). It is part of every memo
	// key that caches engine results, so two backends can never collide
	// in a cache.
	Name() string
	// Eval prepares a per-condition evaluation context (netlist, cell
	// thresholds) for the given PVT condition and
	// reference level. sopt carries the solver settings, notably the
	// ColdStart ablation. crit selects the retention-decision criterion;
	// nil resolves to Static. The Eval is NOT safe for concurrent use;
	// each worker holds its own.
	Eval(cond process.Condition, level regulator.VrefLevel, sopt spice.Options, crit Criterion) (Eval, error)
	// DRV1 is the static data-retention-voltage oracle for a stored '1'
	// (the bisection over the cell's retention criterion). It is pure
	// cell-level math, identical across backends, and memoized
	// process-wide.
	DRV1(v process.Variation, cond process.Condition) float64
	// DRV0 is the stored-'0' twin of DRV1.
	DRV0(v process.Variation, cond process.Condition) float64
}

// Eval is a per-condition evaluation context. Its query methods follow
// the paper's DRF methodology; implementations may chain warm starts
// between calls, which never affects the answers (the repo's warm-start
// equivalence contract).
type Eval interface {
	// FaultFreeRail returns the deep-sleep V_DD_CC of the healthy
	// regulator (reported by the flow optimizer).
	FaultFreeRail() (float64, error)
	// Lost evaluates the full DRF criterion: does defect d at the given
	// resistance make case study cs lose its stored '1' within the DS
	// dwell? res <= 0 probes the fault-free netlist under d's analysis
	// mode (the characterization sanity check).
	Lost(d regulator.Defect, res float64, cs process.CaseStudy, dwell float64) (bool, error)
	// Retention builds the retention model of a device carrying defect d
	// at the given resistance — the seam the behavioral SRAM and the
	// March engine consume. warm optionally seeds the underlying solve;
	// the returned solution continues the caller's warm chain.
	Retention(d regulator.Defect, res float64, warm *spice.Solution) (sram.RetentionModel, *spice.Solution, error)
	// Release returns pooled resources (regulator netlists) for reuse.
	// The Eval and any retention model it produced must not be used
	// afterwards.
	Release()
}

// registry maps engine names to constructors. Backends
// register themselves from init; the indirection avoids import cycles
// (backends import engine, never the reverse).
var registry = struct {
	sync.Mutex
	ctors map[string]func() Engine
}{ctors: map[string]func() Engine{}}

// Register installs a backend constructor under a name ("spice"). Later
// registrations of the same name win, so tests and instrumented wrappers
// can stub backends.
func Register(name string, ctor func() Engine) {
	registry.Lock()
	defer registry.Unlock()
	registry.ctors[name] = ctor
}

// Names lists the registered backends, sorted.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.ctors))
	for n := range registry.ctors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve constructs the backend registered under name. The empty name
// resolves to "spice".
func Resolve(name string) (Engine, error) {
	if name == "" {
		name = "spice"
	}
	registry.Lock()
	ctor, ok := registry.ctors[name]
	registry.Unlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
	}
	return ctor(), nil
}

// Default returns the registered "spice" backend. It panics when no
// backend is linked in — every consumer package imports engine/spicebe.
func Default() Engine {
	e, err := Resolve("spice")
	if err != nil {
		panic("engine: no spice backend registered — import sramtest/internal/engine/spicebe")
	}
	return e
}

// Pick returns e when non-nil, else the default backend. Sweep options
// use it to resolve their Engine field.
func Pick(e Engine) Engine {
	if e != nil {
		return e
	}
	return Default()
}
