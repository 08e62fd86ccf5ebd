package engine

import "sramtest/internal/metrics"

// Static-DRV memo counters, cumulative since process start and purely
// observational: no engine decision reads them. They quantify the
// economy of the shared static-DRV memo (bisections run versus lookups
// it answered). The memo follows every static-DRV lookup: Table I, the
// characterization anchors and the fault-map calibration.
var (
	statDRVSolves = metrics.NewCounter("sramd_engine_drv_solves_total", "Static-DRV bisections run by the shared DRV memo.")
	statDRVHits   = metrics.NewCounter("sramd_engine_drv_cache_hits_total", "Static-DRV lookups answered by the shared DRV memo.")
)

func init() {
	metrics.GaugeFunc("sramd_engine_drv_cache_entries", "Static-DRV thresholds held by the shared DRV memo.",
		func() int64 { return int64(DRVCacheLen()) })
}

// EngineStats is a snapshot of the cumulative engine counters.
type EngineStats struct {
	DRVSolves    int64 // static-DRV bisections run by the memoized oracle
	DRVCacheHits int64 // static-DRV lookups answered by the memo
}

// Stats returns a snapshot of the cumulative engine counters.
func Stats() EngineStats {
	return EngineStats{
		DRVSolves:    statDRVSolves.Load(),
		DRVCacheHits: statDRVHits.Load(),
	}
}

// Sub returns the per-interval delta s − prev, for benchmarks and
// tests that bracket a region of work with two snapshots.
func (s EngineStats) Sub(prev EngineStats) EngineStats {
	return EngineStats{
		DRVSolves:    s.DRVSolves - prev.DRVSolves,
		DRVCacheHits: s.DRVCacheHits - prev.DRVCacheHits,
	}
}
