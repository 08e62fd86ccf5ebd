package engine

import (
	"math"
	"testing"

	"sramtest/internal/process"
	"sramtest/internal/sweep"
)

// TestDRVMemoEviction: a bounded memo evicts its oldest threshold, and
// the lookup after eviction re-solves it to the identical float64; the
// counters see every bisection and every hit.
func TestDRVMemoEviction(t *testing.T) {
	drvCache = sweep.Cache[drvKey, float64]{Max: 2}
	t.Cleanup(func() { drvCache = sweep.Cache[drvKey, float64]{Max: DRVCacheCap} })
	cond := process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}
	var a, b, c process.Variation
	b[process.MPcc1], c[process.MNcc1] = 1, -1

	s0 := Stats()
	first := CachedDRV1(a, cond)
	if hit := CachedDRV1(a, cond); math.Float64bits(hit) != math.Float64bits(first) {
		t.Fatalf("memo hit %v differs from the solve %v", hit, first)
	}
	CachedDRV1(b, cond)
	CachedDRV1(c, cond) // evicts a
	if n := DRVCacheLen(); n != 2 {
		t.Fatalf("memo holds %d thresholds, want the cap 2", n)
	}
	if again := CachedDRV1(a, cond); math.Float64bits(again) != math.Float64bits(first) {
		t.Errorf("re-solved threshold %v after eviction, want the identical %v", again, first)
	}
	if d := Stats().Sub(s0); d.DRVSolves != 4 || d.DRVCacheHits != 1 {
		t.Errorf("solves %d, hits %d; want 4 and 1", d.DRVSolves, d.DRVCacheHits)
	}
}
