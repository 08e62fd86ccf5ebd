package engine

import (
	"sramtest/internal/cell"
	"sramtest/internal/process"
	"sramtest/internal/sweep"
)

// drvKey identifies one static-DRV evaluation. process.Variation is a
// fixed-size float array, so the whole key is comparable.
type drvKey struct {
	v    process.Variation
	cond process.Condition
	bit  bool // true = stored '1' (DRV_DS1), false = stored '0'
}

// DRVCacheCap bounds the static-DRV memo. It holds Table I (~900
// thresholds) and a full Fig. 4 sweep (~7000) together; each fault-map
// corpus adds CalSamples (48) more per distinct (seed, condition), so a
// long-lived sramd would otherwise grow the memo with every corpus it
// serves. At ~320 B per entry (amd64) the cap keeps it under ~3 MB. The
// oldest threshold goes first, and an evicted one is recomputed bit for
// bit on its next request.
const DRVCacheCap = 1 << 13

// drvCache memoizes the static-DRV bisection process-wide. The DRV
// oracle is pure cell-level math, independent of the circuit backend,
// so the characterization layers and Table I agree on every value by
// construction. The fault-map calibration samples through it
// too, so every shard of a corpus (and every rail of a rail curve) pays
// its solves once. The Monte-Carlo experiment (100k distinct
// variations) deliberately bypasses the memo to keep its footprint flat.
var drvCache = sweep.Cache[drvKey, float64]{Max: DRVCacheCap}

// cachedDRV looks key up in the memo, running solve on a miss, and
// counts the bisection or the hit.
func cachedDRV(key drvKey, solve func() float64) float64 {
	solved := false
	r, _ := drvCache.Do(key, func() (float64, error) {
		solved = true
		statDRVSolves.Add(1)
		return solve(), nil
	})
	if !solved {
		statDRVHits.Add(1)
	}
	return r
}

// CachedDRV1 returns the static DRV of a stored '1' for variation v at
// cond, memoized process-wide.
func CachedDRV1(v process.Variation, cond process.Condition) float64 {
	return cachedDRV(drvKey{v: v, cond: cond, bit: true}, func() float64 {
		return cell.New(v, cond).DRV1()
	})
}

// CachedDRV0 is the stored-'0' twin of CachedDRV1.
func CachedDRV0(v process.Variation, cond process.Condition) float64 {
	return cachedDRV(drvKey{v: v, cond: cond, bit: false}, func() float64 {
		return cell.New(v, cond).DRV0()
	})
}

// ResetDRVCache drops the memoized thresholds (test hygiene).
func ResetDRVCache() { drvCache.Reset() }

// DRVCacheLen reports the number of memoized thresholds (at most
// DRVCacheCap).
func DRVCacheLen() int { return drvCache.Len() }

// DRVOracle provides the shared memoized DRV oracle; backends embed it
// to satisfy the Engine interface's DRV1/DRV0 methods.
type DRVOracle struct{}

// DRV1 implements Engine.
func (DRVOracle) DRV1(v process.Variation, cond process.Condition) float64 {
	return CachedDRV1(v, cond)
}

// DRV0 implements Engine.
func (DRVOracle) DRV0(v process.Variation, cond process.Condition) float64 {
	return CachedDRV0(v, cond)
}
