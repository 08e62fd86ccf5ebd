package spice

import (
	"fmt"
	"math"
)

// TranSpec describes a transient analysis run.
type TranSpec struct {
	TStop  float64  // end time (s)
	DtMax  float64  // largest allowed step (s)
	DtMin  float64  // smallest allowed step before giving up (s)
	Record []NodeID // node voltages to record (all points)
}

// Waveform holds recorded transient node voltages.
type Waveform struct {
	Time    []float64
	Names   []string
	Signals [][]float64 // Signals[k][i] = voltage of Names[k] at Time[i]
}

// Signal returns the samples of the named node.
func (w *Waveform) Signal(name string) []float64 {
	for k, n := range w.Names {
		if n == name {
			return w.Signals[k]
		}
	}
	panic(fmt.Sprintf("spice: waveform has no signal %q", name))
}

// Min returns the minimum value of the named signal and its time.
func (w *Waveform) Min(name string) (t, v float64) {
	s := w.Signal(name)
	t, v = w.Time[0], s[0]
	for i, x := range s {
		if x < v {
			t, v = w.Time[i], x
		}
	}
	return t, v
}

// Final returns the last recorded value of the named signal.
func (w *Waveform) Final(name string) float64 {
	s := w.Signal(name)
	return s[len(s)-1]
}

// TimeBelow returns the total time the named signal spends strictly below
// the threshold, by trapezoidal accounting of the sample intervals.
func (w *Waveform) TimeBelow(name string, threshold float64) float64 {
	s := w.Signal(name)
	total := 0.0
	for i := 1; i < len(s); i++ {
		dt := w.Time[i] - w.Time[i-1]
		a, b := s[i-1], s[i]
		switch {
		case a < threshold && b < threshold:
			total += dt
		case a >= threshold && b >= threshold:
			// nothing
		default:
			// Linear crossing inside the interval.
			frac := (threshold - a) / (b - a)
			if a < threshold {
				total += dt * frac
			} else {
				total += dt * (1 - frac)
			}
		}
	}
	return total
}

// reset re-arms a (possibly recycled) waveform for a new run recording the
// given nodes, truncating rather than freeing the sample buffers so a
// reused Waveform reaches zero steady-state allocations.
func (w *Waveform) reset(c *Circuit, rec []NodeID) {
	w.Time = w.Time[:0]
	w.Names = w.Names[:0]
	for len(w.Signals) < len(rec) {
		w.Signals = append(w.Signals, nil)
	}
	w.Signals = w.Signals[:len(rec)]
	for k, id := range rec {
		w.Names = append(w.Names, c.NodeName(id))
		w.Signals[k] = w.Signals[k][:0]
	}
}

// record appends one sample of every recorded node at time t.
func (w *Waveform) record(rec []NodeID, t float64, x []float64) {
	w.Time = append(w.Time, t)
	for k, id := range rec {
		v := 0.0
		if id != Ground {
			v = x[int(id)-1]
		}
		w.Signals[k] = append(w.Signals[k], v)
	}
}

// Tran runs a backward-Euler transient analysis starting from the given
// initial operating point (which must have been solved on the same
// circuit, typically with the pre-switching source/switch states already
// updated to their t>0 values for a step response).
//
// Backward Euler is deliberately chosen over trapezoidal integration: the
// regulator turn-on transients are stiff RC decays where BE's L-stability
// avoids the ringing artifacts trapezoidal integration produces, and the
// experiments only need monotone settling behaviour and undershoot depth,
// not phase accuracy. Step size adapts by halving on Newton failure and
// growing 1.5× on easy convergence.
// It returns the recorded waveform and the final state (usable as the
// initial condition of a follow-on transient, e.g. the two-phase DS-entry
// sequencing of the regulator).
func Tran(c *Circuit, initial *Solution, spec TranSpec, opt Options) (*Waveform, *Solution, error) {
	wf := &Waveform{}
	final := &Solution{}
	if err := TranInto(c, initial, spec, opt, wf, final); err != nil {
		return nil, nil, err
	}
	return wf, final, nil
}

// TranInto is Tran with caller-owned results: the waveform and final state
// are written into wf and final, whose buffers are truncated and reused,
// so a loop that recycles them (e.g. the regulator's repeated DS-entry
// transients) performs zero steady-state heap allocations. final may be
// the Solution that served as initial — the initial state is consumed
// before final is written.
func TranInto(c *Circuit, initial *Solution, spec TranSpec, opt Options, wf *Waveform, final *Solution) error {
	if spec.TStop <= 0 || spec.DtMax <= 0 {
		return fmt.Errorf("spice: invalid transient spec TStop=%g DtMax=%g", spec.TStop, spec.DtMax)
	}
	if spec.DtMin <= 0 {
		spec.DtMin = spec.DtMax * 1e-9
	}
	n := numUnknowns(c)
	if initial == nil || len(initial.X) != n {
		return fmt.Errorf("spice: transient needs an initial operating point with %d unknowns", n)
	}

	ctx := c.solverContext(ModeTran, opt.Gmin, n)
	statSolves.Add(1)
	copy(ctx.X, initial.X)
	copy(ctx.Prev, initial.X)
	ctx.First = true

	wf.reset(c, spec.Record)
	wf.record(spec.Record, 0, ctx.Prev)

	t := 0.0
	dt := spec.DtMax / 16 // conservative opening step
	for t < spec.TStop {
		if t+dt > spec.TStop {
			dt = spec.TStop - t
		}
		ctx.Dt = dt
		ctx.Time = t + dt
		copy(ctx.X, ctx.Prev) // warm start from last accepted point
		err := newton(c, ctx, opt)
		if err != nil {
			if dt/2 < spec.DtMin {
				return fmt.Errorf("spice: transient stalled at t=%g (dt=%g): %w", t, dt, err)
			}
			dt /= 2
			continue
		}
		t += dt
		copy(ctx.Prev, ctx.X)
		ctx.First = false
		wf.record(spec.Record, t, ctx.Prev)
		if dt < spec.DtMax {
			dt = math.Min(dt*1.5, spec.DtMax)
		}
	}
	final.set(c, ctx.Prev)
	return nil
}
