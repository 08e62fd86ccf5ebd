package noisescan

import "sramtest/internal/metrics"

// Scan counters, cumulative since process start and purely
// observational. They let an operator watch the ensemble spend and the
// latest tightening of the DRV threshold without parsing job artifacts.
var (
	statScans    = metrics.NewCounter("sramd_noise_scans_total", "Completed full flip-probability scans.")
	statPartials = metrics.NewCounter("sramd_noise_partials_total", "Completed noise-scan shard partials.")
	statPoints   = metrics.NewCounter("sramd_noise_points_total", "Rail points measured across all scans.")
	statFlips    = metrics.NewCounter("sramd_noise_flips_total", "Flipped ensemble members observed across all scans.")

	// EffDRV − StaticDRV of the latest full scan (V); partials leave it.
	statLastTighten = metrics.NewGauge("sramd_noise_last_tighten_volts", "DRV tightening of the latest full scan.")
)

// countScan folds a completed full scan into the counters.
func countScan(r Result) {
	statScans.Add(1)
	statPoints.Add(int64(len(r.Curve)))
	for _, p := range r.Curve {
		statFlips.Add(int64(p.Flips))
	}
	statLastTighten.Set(r.Tighten)
}

// countPartial folds a completed shard partial into the counters. The
// last-scan gauge is left to full (merged) scans.
func countPartial(p Partial) {
	statPartials.Add(1)
	statPoints.Add(int64(len(p.Stats)))
	for _, st := range p.Stats {
		statFlips.Add(int64(st.Flips))
	}
}
