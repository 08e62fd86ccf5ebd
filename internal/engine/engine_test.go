package engine_test

import (
	"strings"
	"testing"

	"sramtest/internal/engine"
	_ "sramtest/internal/engine/spicebe"
)

func TestNamesListsAllBackends(t *testing.T) {
	if names := engine.Names(); len(names) != 1 || names[0] != "spice" {
		t.Errorf("Names() = %v, want [spice]", names)
	}
}

func TestResolve(t *testing.T) {
	for _, in := range []string{"", "spice"} {
		e, err := engine.Resolve(in)
		if err != nil {
			t.Errorf("Resolve(%q): %v", in, err)
			continue
		}
		if e.Name() != "spice" {
			t.Errorf("Resolve(%q).Name() = %q, want spice", in, e.Name())
		}
	}
}

func TestResolveUnknown(t *testing.T) {
	// The deleted approximate backends must not resolve either.
	for _, name := range []string{"nosuch", "surrogate", "surrogate.v1", "tiered", "tiered.v1"} {
		if _, err := engine.Resolve(name); err == nil {
			t.Errorf("Resolve(%q) succeeded", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name the bad engine %q", err, name)
		}
	}
}

// stubEngine is a backend distinguishable from the default by name.
type stubEngine struct{ engine.Engine }

func (stubEngine) Name() string { return "stub" }

func TestDefaultAndPick(t *testing.T) {
	if got := engine.Default().Name(); got != "spice" {
		t.Fatalf("default is %q, want spice", got)
	}
	if got := engine.Pick(nil).Name(); got != "spice" {
		t.Fatalf("Pick(nil) = %q, want spice", got)
	}
	// An explicit engine always beats the default.
	if got := engine.Pick(stubEngine{}).Name(); got != "stub" {
		t.Fatalf("Pick(explicit) = %q, want stub", got)
	}
}

func TestEngineStatsSub(t *testing.T) {
	a := engine.EngineStats{DRVSolves: 48, DRVCacheHits: 7}
	b := engine.EngineStats{DRVSolves: 50, DRVCacheHits: 103}
	if d := b.Sub(a); d.DRVSolves != 2 || d.DRVCacheHits != 96 {
		t.Fatalf("Sub = %+v", d)
	}
}
