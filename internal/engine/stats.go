package engine

import "sync/atomic"

// Package-level static-DRV memo counters, mirroring the solver counters
// in internal/spice/stats.go: cumulative since process start (or
// ResetStats), atomically updated so parallel sweeps account globally
// without a lock, and purely observational — no engine decision reads
// them. They quantify the economy of the shared static-DRV memo
// (bisections run versus lookups it answered).
var (
	statDRVSolves atomic.Int64 // static-DRV bisections run by the memoized oracle
	statDRVHits   atomic.Int64 // static-DRV lookups answered by the memo
)

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
// metrics scrapes that bracket a region of work with two snapshots.
func (s EngineStats) Sub(prev EngineStats) EngineStats {
	return EngineStats{
		DRVSolves:    s.DRVSolves - prev.DRVSolves,
		DRVCacheHits: s.DRVCacheHits - prev.DRVCacheHits,
	}
}

// ResetStats zeroes all engine counters (test/benchmark hygiene).
func ResetStats() {
	statDRVSolves.Store(0)
	statDRVHits.Store(0)
}
