package faultmap

import (
	"math"
	"testing"

	"sramtest/internal/num"
	"sramtest/internal/process"
	"sramtest/internal/sram"
)

// TestCalibrationMatchesAnalytic: on the linear synthetic model the
// fitted moments must approach the analytic mu and sigma, and the
// implied tail probability the analytic normal tail.
func TestCalibrationMatchesAnalytic(t *testing.T) {
	cal := mustCalibrate(t, synthModel{}, 0)
	if math.Abs(cal.Mu-synthBase) > 0.03 {
		t.Errorf("Mu = %.4f, want ≈ %.2f", cal.Mu, synthBase)
	}
	if math.Abs(cal.Sigma-synthSlope) > 0.02 {
		t.Errorf("Sigma = %.4f, want ≈ %.2f", cal.Sigma, synthSlope)
	}
	analytic := num.NormTail((0.50 - synthBase) / synthSlope)
	if cal.PDRF < analytic/100 || cal.PDRF > analytic*100 {
		t.Errorf("PDRF = %.3g, want within 2 decades of the analytic %.3g", cal.PDRF, analytic)
	}
	if cal.Solves != CalSamples {
		t.Errorf("Solves = %d, want %d", cal.Solves, CalSamples)
	}
}

// TestCalibrationDegenerateModel: a constant model must still calibrate
// (sigma floored) with a 0-or-1 tail.
func TestCalibrationDegenerateModel(t *testing.T) {
	cal := mustCalibrate(t, constModel(0.3), 0)
	if cal.PDRF != 0 {
		t.Errorf("rail above a constant DRV must imply PDRF = 0, got %g", cal.PDRF)
	}
	cal = mustCalibrate(t, constModel(0.6), 0)
	if cal.PDRF != 1 {
		t.Errorf("rail below a constant DRV must imply PDRF = 1, got %g", cal.PDRF)
	}
}

type constModel float64

func (c constModel) DRV1(_ process.Variation, _ process.Condition) float64 { return float64(c) }

// TestSpatialCorrelation: generated faults must show the streak/cluster
// structure — some physical row far denser than the i.i.d. background —
// while the overall density stays near the marginal budget.
func TestSpatialCorrelation(t *testing.T) {
	p := testParams()
	p.Vref = 0.47 // z ≈ 3.4: pDRF ≈ 3e-4, dense enough to see structure
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	maxRow, total := 0, 0
	rows := make([]int, sram.Rows)
	for idx := 0; idx < 40; idx++ {
		m := g.Map(idx)
		for i := range rows {
			rows[i] = 0
		}
		count := func(addr, bit int) {
			rows[sram.LocateCell(addr, bit).Row]++
		}
		for _, c := range m.DRF0 {
			count(c.Addr, c.Bit)
		}
		for _, c := range m.DRF1 {
			count(c.Addr, c.Bit)
		}
		for _, r := range rows {
			if r > maxRow {
				maxRow = r
			}
		}
		total += len(m.DRF0) + len(m.DRF1)
	}
	meanPerRow := float64(total) / float64(40*sram.Rows)
	if maxRow < 6 {
		t.Errorf("densest row holds %d DRF bits — no streak/cluster structure (mean %.3f/row)", maxRow, meanPerRow)
	}
	if float64(maxRow) < 10*meanPerRow {
		t.Errorf("densest row (%d) not clearly above the background (%.3f/row)", maxRow, meanPerRow)
	}
}

// TestVoltageAcceleration: lowering VDD must raise the static defect
// density by the acceleration law while the DRF side (driven by the
// rail, not VDD) is untouched by this knob.
func TestVoltageAcceleration(t *testing.T) {
	statics := func(vdd float64) int {
		p := testParams()
		p.Cond.VDD = vdd
		g, err := NewGenerator(p)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for idx := 0; idx < 8; idx++ {
			n += len(g.Map(idx).Static)
		}
		return n
	}
	nom, low := statics(1.1), statics(0.9)
	if nom == 0 {
		t.Fatal("no static defects at nominal VDD — the acceleration check is vacuous")
	}
	// exp(0.2/0.1) ≈ 7.4× more defects at 0.9 V; demand at least 3×.
	if float64(low) < 3*float64(nom) {
		t.Errorf("statics at 0.9 V = %d, want ≥ 3× the %d at 1.1 V", low, nom)
	}
}

// TestMapClassAccounting: Bits and ByClass agree with the sparse lists,
// and every generated class has the right polarity split available.
func TestMapClassAccounting(t *testing.T) {
	g, err := NewGenerator(testParams())
	if err != nil {
		t.Fatal(err)
	}
	totalBits := 0
	for idx := 0; idx < 24; idx++ {
		m := g.Map(idx)
		by := m.ByClass()
		var sum int64
		for c, n := range by {
			if Class(c) == ClassNone && n != 0 {
				t.Fatalf("map %d tallies %d bits under ClassNone", idx, n)
			}
			sum += n
		}
		if int(sum) != m.Bits() {
			t.Fatalf("map %d: ByClass sums to %d, Bits() = %d", idx, sum, m.Bits())
		}
		totalBits += m.Bits()
	}
	if totalBits == 0 {
		t.Error("24-map corpus generated no fault at all")
	}
}
