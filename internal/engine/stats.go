package engine

import "sync/atomic"

// Package-level tiered/surrogate counters, mirroring the solver counters
// in internal/spice/stats.go: cumulative since process start (or
// ResetStats), atomically updated so parallel sweeps account globally
// without a lock, and purely observational — no engine decision reads
// them. They quantify the tiered backend's screening economy: how many
// decisions the calibrated band answered versus how many escalated to a
// full Newton solve — plus the economy of the shared static-DRV memo
// (bisections run versus lookups it answered).
var (
	statScreened        atomic.Int64 // decisions answered from the surrogate band
	statEscalations     atomic.Int64 // screens that fell through to full SPICE
	statTransientDirect atomic.Int64 // transient-defect evaluations routed straight to SPICE
	statCalSolves       atomic.Int64 // SPICE solves spent building calibration tables
	statTables          atomic.Int64 // calibration tables built
	statExactInserts    atomic.Int64 // escalated results folded back into a table
	statDRVSolves       atomic.Int64 // static-DRV bisections run by the memoized oracle
	statDRVHits         atomic.Int64 // static-DRV lookups answered by the memo
)

// EngineStats is a snapshot of the cumulative engine counters.
type EngineStats struct {
	Screened        int64 // decisions answered from the surrogate band
	Escalations     int64 // screens that fell through to full SPICE
	TransientDirect int64 // transient-defect evaluations sent straight to SPICE
	CalSolves       int64 // SPICE solves spent calibrating tables
	Tables          int64 // calibration tables built
	ExactInserts    int64 // escalated exact samples inserted into tables
	DRVSolves       int64 // static-DRV bisections run by the memoized oracle
	DRVCacheHits    int64 // static-DRV lookups answered by the memo
}

// Stats returns a snapshot of the cumulative engine counters.
func Stats() EngineStats {
	return EngineStats{
		Screened:        statScreened.Load(),
		Escalations:     statEscalations.Load(),
		TransientDirect: statTransientDirect.Load(),
		CalSolves:       statCalSolves.Load(),
		Tables:          statTables.Load(),
		ExactInserts:    statExactInserts.Load(),
		DRVSolves:       statDRVSolves.Load(),
		DRVCacheHits:    statDRVHits.Load(),
	}
}

// Sub returns the per-interval delta s − prev, for benchmarks and
// metrics scrapes that bracket a region of work with two snapshots.
func (s EngineStats) Sub(prev EngineStats) EngineStats {
	return EngineStats{
		Screened:        s.Screened - prev.Screened,
		Escalations:     s.Escalations - prev.Escalations,
		TransientDirect: s.TransientDirect - prev.TransientDirect,
		CalSolves:       s.CalSolves - prev.CalSolves,
		Tables:          s.Tables - prev.Tables,
		ExactInserts:    s.ExactInserts - prev.ExactInserts,
		DRVSolves:       s.DRVSolves - prev.DRVSolves,
		DRVCacheHits:    s.DRVCacheHits - prev.DRVCacheHits,
	}
}

// ScreenRatio returns the fraction of screened decisions over all
// band-screened attempts (screened + escalated), or 0 when none ran.
func (s EngineStats) ScreenRatio() float64 {
	total := s.Screened + s.Escalations
	if total == 0 {
		return 0
	}
	return float64(s.Screened) / float64(total)
}

// ResetStats zeroes all engine counters (test/benchmark hygiene).
func ResetStats() {
	statScreened.Store(0)
	statEscalations.Store(0)
	statTransientDirect.Store(0)
	statCalSolves.Store(0)
	statTables.Store(0)
	statExactInserts.Store(0)
	statDRVSolves.Store(0)
	statDRVHits.Store(0)
}

// The counter hooks below are called by the backends; they live here so
// the counters stay private to one package.

// CountScreened records a decision answered from the surrogate band.
func CountScreened() { statScreened.Add(1) }

// CountEscalation records a screen that fell through to full SPICE.
func CountEscalation() { statEscalations.Add(1) }

// CountTransientDirect records a transient-defect evaluation routed
// straight to SPICE (no band can answer a waveform criterion).
func CountTransientDirect() { statTransientDirect.Add(1) }

// CountCalSolves records n SPICE solves spent on table calibration.
func CountCalSolves(n int) { statCalSolves.Add(int64(n)) }

// CountTable records a calibration table build.
func CountTable() { statTables.Add(1) }

// CountExactInsert records an escalated exact sample folded into a table.
func CountExactInsert() { statExactInserts.Add(1) }
