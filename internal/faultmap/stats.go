package faultmap

import "sramtest/internal/metrics"

// Fault-map corpus counters, cumulative since process start and purely
// observational. They let an operator watch corpus throughput and the
// health of the latest evaluation without parsing job artifacts.
var (
	statRuns      = metrics.NewCounter("sramd_faultmap_runs_total", "Completed full fault-map corpus evaluations.")
	statPartials  = metrics.NewCounter("sramd_faultmap_partials_total", "Completed fault-map shard partials.")
	statMaps      = metrics.NewCounter("sramd_faultmap_maps_total", "Fault maps generated and evaluated.")
	statFaultBits = metrics.NewCounter("sramd_faultmap_fault_bits_total", "Fault bits across all generated maps.")
	statDetected  = metrics.NewCounter("sramd_faultmap_detected_total", "Detected fault bits, summed over tests.")
	statDropped   = metrics.NewCounter("sramd_faultmap_dropped_failures_total", "Miscompares beyond the bounded capture.")

	// Last-run gauges, set by full evaluations only.
	statLastBest    = metrics.NewGauge("sramd_faultmap_last_best_coverage", "Best per-test coverage of the latest full run.")
	statLastDensity = metrics.NewGauge("sramd_faultmap_last_bits_per_map", "Fault density of the latest full run.")
)

// FaultMapStats is a snapshot of the cumulative faultmap counters.
type FaultMapStats struct {
	Runs      int64 // completed full corpus evaluations
	Partials  int64 // completed shard partials
	Maps      int64 // maps generated and evaluated
	FaultBits int64 // fault bits across those maps
	Detected  int64 // detected fault bits, summed over tests
	Dropped   int64 // miscompares beyond the bounded capture

	LastBestCoverage float64 // best per-test coverage of the latest run
	LastBitsPerMap   float64 // fault density of the latest run
}

// Stats returns a snapshot of the cumulative faultmap counters.
func Stats() FaultMapStats {
	return FaultMapStats{
		Runs:             statRuns.Load(),
		Partials:         statPartials.Load(),
		Maps:             statMaps.Load(),
		FaultBits:        statFaultBits.Load(),
		Detected:         statDetected.Load(),
		Dropped:          statDropped.Load(),
		LastBestCoverage: statLastBest.Load(),
		LastBitsPerMap:   statLastDensity.Load(),
	}
}

// countRun folds a completed full evaluation into the counters.
func countRun(r Result) {
	statRuns.Add(1)
	statMaps.Add(int64(r.Maps))
	statFaultBits.Add(r.Bits)
	best := 0.0
	for _, t := range r.Tests {
		statDetected.Add(t.Detected)
		statDropped.Add(t.Dropped)
		if t.Coverage > best {
			best = t.Coverage
		}
	}
	statLastBest.Set(best)
	statLastDensity.Set(r.BitsPerMap)
}

// countPartial folds a completed shard partial into the counters. The
// last-run gauges are left to full (merged) evaluations.
func countPartial(p Partial) {
	statPartials.Add(1)
	for _, st := range p.Chunks {
		statMaps.Add(int64(st.Maps))
		statFaultBits.Add(st.Bits)
		for _, t := range st.Tests {
			statDetected.Add(t.Detected)
			statDropped.Add(t.Dropped)
		}
	}
}
