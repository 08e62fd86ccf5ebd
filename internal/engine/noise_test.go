package engine_test

import (
	"testing"

	"sramtest/internal/engine"
	"sramtest/internal/process"
	"sramtest/internal/spice"
)

// mcCondition is the documented near-DRV condition of EXP-NS: the FS
// corner at nominal VDD and hot temperature, where CS5-1's static DRV
// is highest and the noise criterion's tightening is largest.
func noiseCond() process.Condition {
	return process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}
}

func caseStudy(t *testing.T, name string) process.CaseStudy {
	t.Helper()
	for _, cs := range process.Table1CaseStudies() {
		if cs.Name == name {
			return cs
		}
	}
	t.Fatalf("case study %q not in Table I", name)
	return process.CaseStudy{}
}

// TestNoiseCriterionTightensNearDRV pins the acceptance case: under the
// default accelerated-noise ensemble, the weak CS5-1 cell's effective
// DRV tightens well above its static DRV at the FS/1.1V/125°C corner,
// while the strong-margin CS1-1 cell tightens far less. The criterion is
// never looser than the static oracle.
func TestNoiseCriterionTightensNearDRV(t *testing.T) {
	cond := noiseCond()
	crit := engine.NewNoiseCriterion(engine.DefaultNoiseParams())
	weak, strong := caseStudy(t, "CS5-1"), caseStudy(t, "CS1-1")

	sWeak := engine.CachedDRV1(weak.Variation, cond)
	eWeak := crit.DRV1(weak.Variation, cond)
	if eWeak < sWeak {
		t.Fatalf("noise DRV1(CS5-1) = %.4f below static %.4f", eWeak, sWeak)
	}
	if dt := eWeak - sWeak; dt < 0.02 {
		t.Errorf("CS5-1 tightening = %.1f mV, want >= 20 mV (near-DRV divergence case)", dt*1e3)
	}
	if max := crit.P.MaxTighten; eWeak > sWeak+max {
		t.Errorf("CS5-1 tightening %.4f exceeds the MaxTighten cap %.4f", eWeak-sWeak, max)
	}

	sStrong := engine.CachedDRV1(strong.Variation, cond)
	eStrong := crit.DRV1(strong.Variation, cond)
	if eStrong < sStrong {
		t.Fatalf("noise DRV1(CS1-1) = %.4f below static %.4f", eStrong, sStrong)
	}
	if (eStrong - sStrong) > (eWeak-sWeak)-0.01 {
		t.Errorf("CS1-1 tightening %.1f mV not clearly below CS5-1's %.1f mV",
			(eStrong-sStrong)*1e3, (eWeak-sWeak)*1e3)
	}
}

// TestEffectiveDRV1Deterministic: two fresh bisections (fresh NoiseSim,
// fresh warm chains) produce byte-identical thresholds, and the memoized
// criterion path agrees with the direct computation.
func TestEffectiveDRV1Deterministic(t *testing.T) {
	cond := noiseCond()
	cs := caseStudy(t, "CS5-1")
	p := engine.DefaultNoiseParams()

	a := engine.EffectiveDRV1(cs.Variation, cond, p, spice.DefaultOptions())
	b := engine.EffectiveDRV1(cs.Variation, cond, p, spice.DefaultOptions())
	if a != b {
		t.Fatalf("EffectiveDRV1 not deterministic: %.17g vs %.17g", a, b)
	}
	if got := engine.NewNoiseCriterion(p).DRV1(cs.Variation, cond); got != a {
		t.Fatalf("memoized DRV1 = %.17g, direct = %.17g", got, a)
	}
}

// TestNoiseLostDCRegimes: at dwells containing the ensemble window the
// decision is the tightened threshold; shorter dwells fall back to the
// static rule. Both regimes are monotone in the rail.
func TestNoiseLostDCRegimes(t *testing.T) {
	cond := noiseCond()
	cs := caseStudy(t, "CS5-1")
	crit := engine.NewNoiseCriterion(engine.DefaultNoiseParams())
	c := engine.NewCellCrit(cs, cond, crit)

	eff := c.EffDRV1()
	dwell := 1.0 // production DS dwell, far above the 40 µs window
	if !c.LostDC(eff-2e-3, dwell) {
		t.Errorf("rail %.4f just below effective DRV %.4f not lost", eff-2e-3, eff)
	}
	if c.LostDC(eff+2e-3, dwell) {
		t.Errorf("rail %.4f just above effective DRV %.4f lost", eff+2e-3, eff)
	}

	// Sub-window dwells cannot see a noise flip: static rule, bit for bit.
	short := crit.P.Window / 4
	for _, v := range []float64{c.DRV1 - 0.05, c.DRV1 - 0.01, c.DRV1 + 0.01, eff + 0.01} {
		if got, want := c.LostDC(v, short), (engine.Static{}).LostDC(c, v, short); got != want {
			t.Errorf("short-dwell LostDC(%.4f) = %v, static rule says %v", v, got, want)
		}
	}
}

// TestCriterionRegistry: resolution, canonical-name round-trips, and
// PickCriterion's Static default for an unset criterion.
func TestCriterionRegistry(t *testing.T) {
	if got, err := engine.ResolveCriterion(""); err != nil || got.Name() != "static" {
		t.Fatalf("ResolveCriterion(\"\") = %v, %v", got, err)
	}
	n, err := engine.ResolveCriterion("noise")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := engine.ResolveCriterion(n.Name())
	if err != nil {
		t.Fatalf("canonical spelling %q does not round-trip: %v", n.Name(), err)
	}
	if rt.Name() != n.Name() {
		t.Fatalf("round-trip of %q resolved to %q", n.Name(), rt.Name())
	}
	if _, err := engine.ResolveCriterion("nosuch"); err == nil {
		t.Fatal("ResolveCriterion(nosuch) succeeded")
	}

	if got := engine.PickCriterion(nil).Name(); got != "static" {
		t.Fatalf("PickCriterion(nil) = %q, want static", got)
	}
	if got := engine.PickCriterion(n).Name(); got != n.Name() {
		t.Fatalf("explicit criterion lost to the default: %q", got)
	}
}

// TestCriterionModelAdapter: the adapter hands consumers the criterion's
// thresholds unchanged (static identity case).
func TestCriterionModelAdapter(t *testing.T) {
	cond := noiseCond()
	cs := caseStudy(t, "CS2-1")
	m := engine.CriterionModel{Crit: engine.Static{}}
	if got, want := m.DRV1(cs.Variation, cond), engine.CachedDRV1(cs.Variation, cond); got != want {
		t.Fatalf("CriterionModel(static).DRV1 = %g, oracle = %g", got, want)
	}
}
