package faultmap

import (
	"fmt"

	"sramtest/internal/bist"
	"sramtest/internal/march"
	"sramtest/internal/sram"
)

// runResult is the outcome of one test run against one mapped array:
// the per-word detection mask (bit b of word a is set when some
// miscompare at address a observed a wrong value on bit b) plus the
// raw miscompare accounting.
type runResult struct {
	det         []uint64
	miscompares int64
	dropped     int64
}

// observe folds one streamed failure into the detection mask. The
// failing bits of a word-level miscompare are exactly Expected^Got.
func (r *runResult) observe(f march.Failure) {
	r.det[f.Addr] |= f.Expected ^ f.Got
}

// evalOpts is the bounded-capture configuration every evaluation run
// uses: one recorded failure (enough for Detected()), every miscompare
// streamed into the mask.
func (r *runResult) evalOpts() march.RunOptions {
	return march.RunOptions{FailureCap: 1, OnFailure: r.observe}
}

// evalMarch runs one March test through the software executor.
func evalMarch(t march.Test, m *Map) (runResult, error) {
	r := runResult{det: make([]uint64, sram.Words)}
	rep, err := march.RunWith(t, m.NewSRAM(), r.evalOpts())
	if err != nil {
		return r, fmt.Errorf("faultmap: %s on map %d: %w", t.Name, m.Index, err)
	}
	r.miscompares = int64(rep.TotalMiscompares)
	r.dropped = int64(rep.DroppedFailures)
	return r, nil
}

// evalBIST runs one March test through the compiled BIST engine — the
// bit-equivalent hardware path, for coverage numbers that reflect what
// the on-chip controller would report.
func evalBIST(t march.Test, m *Map) (runResult, error) {
	r := runResult{det: make([]uint64, sram.Words)}
	prog, err := bist.Compile(t, sram.CycleTime)
	if err != nil {
		return r, fmt.Errorf("faultmap: compile %s: %w", t.Name, err)
	}
	c := bist.New(prog, m.NewSRAM())
	c.SetFailCapacity(1)
	c.SetFailHook(r.observe)
	res, err := c.Run()
	if err != nil {
		return r, fmt.Errorf("faultmap: BIST %s on map %d: %w", t.Name, m.Index, err)
	}
	r.miscompares = int64(res.Total)
	r.dropped = int64(res.Total - len(res.Failures))
	return r, nil
}

// evalRandom runs one constrained-random stream. The stream seed is
// the spec's seed folded with the map's own derived seed, so every
// (map, spec) pair replays its own reproducible operation sequence.
func evalRandom(spec march.RandomSpec, m *Map) (runResult, error) {
	r := runResult{det: make([]uint64, sram.Words)}
	spec.Seed ^= m.Seed
	rep, err := march.RunRandomWith(spec, m.NewSRAM(), r.evalOpts())
	if err != nil {
		return r, fmt.Errorf("faultmap: random stream on map %d: %w", m.Index, err)
	}
	r.miscompares = int64(rep.TotalMiscompares)
	r.dropped = int64(rep.DroppedFailures)
	return r, nil
}

// TestTally is the mergeable per-test detection statistic of a chunk of
// maps (and, after reduction, of a whole corpus).
type TestTally struct {
	// Name is the resolved test name (March algorithm or random stream).
	Name string `json:"name"`
	// Detected counts fault bits whose corruption some miscompare of
	// this test observed; ByClass splits the count per fault class.
	Detected int64             `json:"detected"`
	ByClass  [NumClasses]int64 `json:"byClass"`
	// Miscompares and Dropped aggregate the raw failure accounting
	// (Dropped counts miscompares beyond the bounded capture).
	Miscompares int64 `json:"miscompares"`
	Dropped     int64 `json:"dropped"`
	// CleanMaps counts maps on which every fault bit was detected.
	CleanMaps int64 `json:"cleanMaps"`
}

// merge folds another tally of the same test into t.
func (t *TestTally) merge(o TestTally) {
	t.Detected += o.Detected
	for c := range t.ByClass {
		t.ByClass[c] += o.ByClass[c]
	}
	t.Miscompares += o.Miscompares
	t.Dropped += o.Dropped
	t.CleanMaps += o.CleanMaps
}

// tallyMap scores one run's detection mask against the map's fault
// list and folds it into the tally.
func (t *TestTally) tallyMap(m *Map, r runResult) {
	detected := int64(0)
	check := func(addr, bit int, cl Class) {
		if r.det[addr]>>uint(bit)&1 == 1 {
			detected++
			t.ByClass[cl]++
		}
	}
	for _, c := range m.DRF0 {
		check(c.Addr, c.Bit, ClassDRF0)
	}
	for _, c := range m.DRF1 {
		check(c.Addr, c.Bit, ClassDRF1)
	}
	for _, f := range m.Static {
		check(f.Victim.Addr, f.Victim.Bit, classOf(f.Kind))
	}
	t.Detected += detected
	t.Miscompares += r.miscompares
	t.Dropped += r.dropped
	if detected == int64(m.Bits()) {
		t.CleanMaps++
	}
}

// evalMap runs every configured test against one map and folds the
// results into the chunk's tallies (index-aligned with TestNames).
func evalMap(p Params, m *Map, tallies []TestTally) error {
	i := 0
	for _, t := range p.Tests {
		var (
			r   runResult
			err error
		)
		if p.Engine == EngineBIST {
			r, err = evalBIST(t, m)
		} else {
			r, err = evalMarch(t, m)
		}
		if err != nil {
			return err
		}
		tallies[i].tallyMap(m, r)
		i++
	}
	for _, spec := range p.Random {
		r, err := evalRandom(spec, m)
		if err != nil {
			return err
		}
		tallies[i].tallyMap(m, r)
		i++
	}
	return nil
}
