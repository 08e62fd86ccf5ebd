package faultmap

import (
	"context"
	"testing"

	"sramtest/internal/fault"
	"sramtest/internal/march"
	"sramtest/internal/sram"
)

// handMap builds a map directly from fault lists, bypassing generation.
func handMap(drf0, drf1 []fault.Cell, static []fault.Fault) *Map {
	return &Map{Index: 0, Seed: 1, DRF0: drf0, DRF1: drf1, Static: static}
}

// TestDRFDetectionByAlgorithm pins the class semantics that make EXP-FM
// work: March m-LZ detects both DRF polarities through its two
// deep-sleep dwells; the dwell-free March C- and the light-sleep March
// LZ detect neither (the decay layer only fires on EnterDS).
func TestDRFDetectionByAlgorithm(t *testing.T) {
	m := handMap(
		[]fault.Cell{{Addr: 200, Bit: 5}},
		[]fault.Cell{{Addr: 100, Bit: 3}},
		nil,
	)
	cases := []struct {
		test march.Test
		want int64
	}{
		{march.MarchMLZ(), 2},
		{march.MarchCMinus(), 0},
		{march.MarchLZ(), 0},
		{march.MATSPlus(), 0},
	}
	for _, c := range cases {
		r, err := evalMarch(c.test, m)
		if err != nil {
			t.Fatalf("%s: %v", c.test.Name, err)
		}
		var tally TestTally
		tally.tallyMap(m, r)
		if tally.Detected != c.want {
			t.Errorf("%s detected %d of 2 DRF bits, want %d", c.test.Name, tally.Detected, c.want)
		}
		if c.want == 2 {
			if tally.ByClass[ClassDRF0] != 1 || tally.ByClass[ClassDRF1] != 1 {
				t.Errorf("%s class split %v, want one of each polarity", c.test.Name, tally.ByClass)
			}
			if tally.CleanMaps != 1 {
				t.Errorf("%s must fully cover the map", c.test.Name)
			}
		}
	}
}

// TestStaticDetection: March SS detects the full static set; the class
// split lands on the right classes.
func TestStaticDetection(t *testing.T) {
	m := handMap(nil, nil, []fault.Fault{
		{Kind: fault.SAF0, Victim: fault.Cell{Addr: 10, Bit: 0}},
		{Kind: fault.SAF1, Victim: fault.Cell{Addr: 20, Bit: 1}},
		{Kind: fault.TFUp, Victim: fault.Cell{Addr: 30, Bit: 2}},
		{Kind: fault.TFDown, Victim: fault.Cell{Addr: 40, Bit: 3}},
	})
	r, err := evalMarch(march.MarchSS(), m)
	if err != nil {
		t.Fatal(err)
	}
	var tally TestTally
	tally.tallyMap(m, r)
	if tally.Detected != 4 {
		t.Fatalf("March SS detected %d of 4 static faults: %+v", tally.Detected, tally.ByClass)
	}
	for _, cl := range []Class{ClassSAF0, ClassSAF1, ClassTFUp, ClassTFDown} {
		if tally.ByClass[cl] != 1 {
			t.Errorf("class %s detected %d times, want 1", cl, tally.ByClass[cl])
		}
	}
}

// TestBISTEquivalence: the compiled BIST engine and the software March
// executor must produce the identical detection mask on the same map.
func TestBISTEquivalence(t *testing.T) {
	g, err := NewGenerator(testParams())
	if err != nil {
		t.Fatal(err)
	}
	m := g.Map(3)
	if m.Bits() == 0 {
		t.Fatal("map 3 is fault-free — pick a different index for the equivalence check")
	}
	for _, test := range []march.Test{march.MarchMLZ(), march.MarchSS()} {
		sw, err := evalMarch(test, m)
		if err != nil {
			t.Fatal(err)
		}
		hw, err := evalBIST(test, m)
		if err != nil {
			t.Fatal(err)
		}
		if sw.miscompares != hw.miscompares {
			t.Errorf("%s: march %d miscompares, BIST %d", test.Name, sw.miscompares, hw.miscompares)
		}
		for addr := range sw.det {
			if sw.det[addr] != hw.det[addr] {
				t.Fatalf("%s: detection masks differ at word %d: %x vs %x",
					test.Name, addr, sw.det[addr], hw.det[addr])
			}
		}
	}
}

// TestRandomStreamDetection: a dwelling constrained-random stream
// observes a planted retention fault; the stream is reproducible per
// (map, spec).
func TestRandomStreamDetection(t *testing.T) {
	var saf []fault.Fault
	for i := 0; i < 64; i++ {
		saf = append(saf, fault.Fault{Kind: fault.SAF1, Victim: fault.Cell{Addr: i * 64, Bit: i % 64}})
	}
	m := handMap(nil, nil, saf)
	spec := march.RandomSpec{Ops: 30000, Seed: 11, DwellEvery: 512}
	a, err := evalRandom(spec, m)
	if err != nil {
		t.Fatal(err)
	}
	var tally TestTally
	tally.tallyMap(m, a)
	if tally.Detected == 0 {
		t.Error("30k random ops over 64 stuck bits detected nothing")
	}
	b, err := evalRandom(spec, m)
	if err != nil {
		t.Fatal(err)
	}
	for addr := range a.det {
		if a.det[addr] != b.det[addr] {
			t.Fatalf("random evaluation not reproducible at word %d", addr)
		}
	}
}

// TestMLZBeatsBaselineOnDRF is the EXP-FM acceptance property at test
// scale: on a generated corpus, March m-LZ's DRF coverage strictly
// exceeds March C-'s (which is structurally zero).
func TestMLZBeatsBaselineOnDRF(t *testing.T) {
	p := testParams()
	p.Random = nil
	res, err := Estimate(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	drfBits := res.ByClass[ClassDRF0] + res.ByClass[ClassDRF1]
	if drfBits == 0 {
		t.Fatal("corpus has no DRF bits — the comparison is vacuous")
	}
	mlz, ok := res.Test("March m-LZ")
	if !ok {
		t.Fatal("March m-LZ missing from the result")
	}
	cm, ok := res.Test("March C-")
	if !ok {
		t.Fatal("March C- missing from the result")
	}
	mlzDRF, _ := mlz.GroupCoverage(res.ByClass, "DRF")
	cmDRF, _ := cm.GroupCoverage(res.ByClass, "DRF")
	if cmDRF != 0 {
		t.Errorf("March C- DRF coverage = %.3f, want 0 (no sleep element)", cmDRF)
	}
	if mlzDRF <= cmDRF {
		t.Errorf("March m-LZ DRF coverage %.3f not above March C-'s %.3f", mlzDRF, cmDRF)
	}
	if mlzDRF != 1 {
		t.Errorf("March m-LZ DRF coverage = %.3f, want 1 (detects both polarities by construction)", mlzDRF)
	}
}

// TestBoundedEvalMemory: evaluation keeps the march failure capture at
// one record per run even when a map floods the array with faults.
func TestBoundedEvalMemory(t *testing.T) {
	// A whole weak column: 512 DRF1 cells sharing bit-line 17.
	var drf1 []fault.Cell
	for row := 0; row < sram.Rows; row++ {
		addr, bit := sram.CellAt(sram.CellLocation{Row: row, Col: 17})
		drf1 = append(drf1, fault.Cell{Addr: addr, Bit: bit})
	}
	m := handMap(nil, drf1, nil)
	r, err := evalMarch(march.MarchMLZ(), m)
	if err != nil {
		t.Fatal(err)
	}
	var tally TestTally
	tally.tallyMap(m, r)
	if tally.Detected != int64(len(drf1)) {
		t.Errorf("detected %d of %d weak-column bits", tally.Detected, len(drf1))
	}
	if tally.Dropped != tally.Miscompares-1 {
		t.Errorf("dropped %d of %d miscompares, want all but the single recorded one",
			tally.Dropped, tally.Miscompares)
	}
}

// TestApplyEdgeWords: the per-word fault masks cover the whole address
// range — a stuck-at bit and a coupling aggressor on the first and the
// last word both act, each coupling victim in another word.
func TestApplyEdgeWords(t *testing.T) {
	last := sram.Words - 1
	for _, c := range []struct{ edge, other, victim, clean int }{{0, last, 100, 1}, {last, 0, 200, last - 1}} {
		m := handMap(nil, nil, []fault.Fault{
			{Kind: fault.SAF1, Victim: fault.Cell{Addr: c.edge, Bit: 5}},
			{Kind: fault.CFid, Aggressor: fault.Cell{Addr: c.edge, Bit: 7}, Victim: fault.Cell{Addr: c.victim, Bit: 2}, Val: true},
			{Kind: fault.CFid, Aggressor: fault.Cell{Addr: c.other, Bit: 1}, Victim: fault.Cell{Addr: c.victim, Bit: 9}, Val: true},
		})
		s := m.NewSRAM()
		read := func(addr int) uint64 {
			t.Helper()
			v, err := s.Read(addr)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		write := func(addr int, v uint64) {
			t.Helper()
			if err := s.Write(addr, v); err != nil {
				t.Fatal(err)
			}
		}
		if got := read(c.victim); got != 0 {
			t.Fatalf("edge %d: victim word starts at %#x, want 0", c.edge, got)
		}
		write(c.edge, 1<<7) // up transition on the aggressor bit; bit 5 stuck at 1
		if got, want := read(c.edge), uint64(1<<7|1<<5); got != want {
			t.Errorf("edge %d: word reads %#x, want %#x (SAF1 on bit 5)", c.edge, got, want)
		}
		if got := read(c.victim); got != 1<<2 {
			t.Errorf("edge %d: victim reads %#x after the aggressor rose, want %#x", c.edge, got, 1<<2)
		}
		write(c.other, 1<<1)
		if got := read(c.victim); got != 1<<2|1<<9 {
			t.Errorf("edge %d: victim reads %#x after the far aggressor rose, want %#x", c.edge, got, 1<<2|1<<9)
		}
		write(c.clean, 1<<1) // a fault-free neighbour of the edge word
		if got := read(c.victim); got != 1<<2|1<<9 {
			t.Errorf("edge %d: a fault-free word disturbed the victim: %#x", c.edge, got)
		}
	}
}
