package engine_test

import (
	"strings"
	"testing"

	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe"
	_ "sramtest/internal/engine/surrogate"
	_ "sramtest/internal/engine/tiered"
)

func TestNamesListsAllBackends(t *testing.T) {
	names := engine.Names()
	for _, want := range []string{"spice", "surrogate", "tiered"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v, missing %q", names, want)
		}
	}
}

func TestResolve(t *testing.T) {
	cases := []struct {
		in   string
		name string // expected Name() of the resolved engine
	}{
		{"", "spice"},
		{"spice", "spice"},
		{"surrogate", "surrogate.v1"},
		{"tiered", "tiered.v1"},
		// Versioned spellings round-trip: a canonical job spec stores
		// the versioned name and must resolve to the same backend.
		{"surrogate.v1", "surrogate.v1"},
		{"tiered.v1", "tiered.v1"},
	}
	for _, c := range cases {
		e, err := engine.Resolve(c.in)
		if err != nil {
			t.Errorf("Resolve(%q): %v", c.in, err)
			continue
		}
		if e.Name() != c.name {
			t.Errorf("Resolve(%q).Name() = %q, want %q", c.in, e.Name(), c.name)
		}
	}
}

func TestResolveUnknown(t *testing.T) {
	if _, err := engine.Resolve("nosuch"); err == nil {
		t.Fatal("Resolve(nosuch) succeeded")
	} else if !strings.Contains(err.Error(), "nosuch") {
		t.Fatalf("error %q does not name the bad engine", err)
	}
}

func TestDefaultAndPick(t *testing.T) {
	defer engine.SetDefault(nil) // restore the built-in default

	if got := engine.Default().Name(); got != "spice" {
		t.Fatalf("built-in default is %q, want spice", got)
	}
	tiered, err := engine.Resolve("tiered")
	if err != nil {
		t.Fatal(err)
	}
	engine.SetDefault(tiered)
	if got := engine.Pick(nil).Name(); got != "tiered.v1" {
		t.Fatalf("Pick(nil) after SetDefault = %q, want tiered.v1", got)
	}
	spice, err := engine.Resolve("spice")
	if err != nil {
		t.Fatal(err)
	}
	// An explicit engine always beats the process default.
	if got := engine.Pick(spice).Name(); got != "spice" {
		t.Fatalf("Pick(explicit) = %q, want spice", got)
	}
}

func TestRailGeometry(t *testing.T) {
	r := engine.Rail{Lo: 0.4, Hi: 0.6}
	if m := r.Mid(); m != 0.5 {
		t.Errorf("Mid() = %g", m)
	}
	if w := r.Width(); w < 0.2-1e-15 || w > 0.2+1e-15 {
		t.Errorf("Width() = %g", w)
	}
	exact := engine.Rail{Lo: 0.7, Hi: 0.7}
	if exact.Width() != 0 || exact.Mid() != 0.7 {
		t.Errorf("exact rail: %+v", exact)
	}
}

func TestEngineStatsSubAndRatio(t *testing.T) {
	a := engine.EngineStats{Screened: 10, Escalations: 4, CalSolves: 20, Tables: 2, ExactInserts: 3, DRVSolves: 48, DRVCacheHits: 7}
	b := engine.EngineStats{Screened: 16, Escalations: 6, CalSolves: 25, Tables: 3, ExactInserts: 5, DRVSolves: 50, DRVCacheHits: 103}
	d := b.Sub(a)
	if d.Screened != 6 || d.Escalations != 2 || d.CalSolves != 5 || d.Tables != 1 || d.ExactInserts != 2 || d.DRVSolves != 2 || d.DRVCacheHits != 96 {
		t.Fatalf("Sub = %+v", d)
	}
	if got := d.ScreenRatio(); got != 0.75 {
		t.Errorf("ScreenRatio() = %g, want 0.75", got)
	}
	if got := (engine.EngineStats{}).ScreenRatio(); got != 0 {
		t.Errorf("empty ScreenRatio() = %g", got)
	}
}
