package server

import (
	"fmt"
	"io"

	"sramtest/internal/diag"
	"sramtest/internal/engine"
	"sramtest/internal/faultmap"
	"sramtest/internal/jobs"
	"sramtest/internal/noisescan"
	"sramtest/internal/spice"
	"sramtest/internal/store"
	"sramtest/internal/yield"
)

// writeMetrics renders the Prometheus text exposition of the daemon:
// job-state counters, cache hit ratio, sweep task throughput, and the
// job-latency histogram.
func writeMetrics(w io.Writer, mgr *jobs.Manager, st *store.Store) {
	s := mgr.Stats()

	fmt.Fprintln(w, "# HELP sramd_jobs Current job records by state.")
	fmt.Fprintln(w, "# TYPE sramd_jobs gauge")
	fmt.Fprintf(w, "sramd_jobs{state=\"queued\"} %d\n", s.Queued)
	fmt.Fprintf(w, "sramd_jobs{state=\"running\"} %d\n", s.Running)
	fmt.Fprintf(w, "sramd_jobs{state=\"done\"} %d\n", s.Done)
	fmt.Fprintf(w, "sramd_jobs{state=\"failed\"} %d\n", s.Failed)
	fmt.Fprintf(w, "sramd_jobs{state=\"canceled\"} %d\n", s.Canceled)

	fmt.Fprintln(w, "# HELP sramd_cache_hits_total Submissions answered from the result store.")
	fmt.Fprintln(w, "# TYPE sramd_cache_hits_total counter")
	fmt.Fprintf(w, "sramd_cache_hits_total %d\n", s.CacheHits)
	fmt.Fprintln(w, "# HELP sramd_cache_misses_total Submissions that had to compute.")
	fmt.Fprintln(w, "# TYPE sramd_cache_misses_total counter")
	fmt.Fprintf(w, "sramd_cache_misses_total %d\n", s.CacheMisses)
	fmt.Fprintln(w, "# HELP sramd_cache_hit_ratio Hits over lookups since start.")
	fmt.Fprintln(w, "# TYPE sramd_cache_hit_ratio gauge")
	ratio := 0.0
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		ratio = float64(s.CacheHits) / float64(lookups)
	}
	fmt.Fprintf(w, "sramd_cache_hit_ratio %g\n", ratio)

	if st != nil {
		_, _, evictions := st.Stats()
		fmt.Fprintln(w, "# HELP sramd_store_entries Entries currently stored.")
		fmt.Fprintln(w, "# TYPE sramd_store_entries gauge")
		fmt.Fprintf(w, "sramd_store_entries %d\n", st.Len())
		fmt.Fprintln(w, "# HELP sramd_store_evictions_total LRU evictions since start.")
		fmt.Fprintln(w, "# TYPE sramd_store_evictions_total counter")
		fmt.Fprintf(w, "sramd_store_evictions_total %d\n", evictions)
	}

	fmt.Fprintln(w, "# HELP sramd_sweep_tasks_done_total Sweep-engine tasks completed across all jobs.")
	fmt.Fprintln(w, "# TYPE sramd_sweep_tasks_done_total counter")
	fmt.Fprintf(w, "sramd_sweep_tasks_done_total %d\n", s.TasksDone)
	fmt.Fprintln(w, "# HELP sramd_sweep_tasks_total Sweep-engine tasks scheduled across all jobs.")
	fmt.Fprintln(w, "# TYPE sramd_sweep_tasks_total counter")
	fmt.Fprintf(w, "sramd_sweep_tasks_total %d\n", s.TasksTotal)

	sp := spice.Stats()
	fmt.Fprintln(w, "# HELP sramd_spice_solves_total Top-level operating-point/transient solves.")
	fmt.Fprintln(w, "# TYPE sramd_spice_solves_total counter")
	fmt.Fprintf(w, "sramd_spice_solves_total %d\n", sp.Solves)
	fmt.Fprintln(w, "# HELP sramd_spice_newton_iters_total Newton iterations across all solves.")
	fmt.Fprintln(w, "# TYPE sramd_spice_newton_iters_total counter")
	fmt.Fprintf(w, "sramd_spice_newton_iters_total %d\n", sp.NewtonIters)
	fmt.Fprintln(w, "# HELP sramd_spice_warm_starts_total Solves seeded from a previous solution.")
	fmt.Fprintln(w, "# TYPE sramd_spice_warm_starts_total counter")
	fmt.Fprintf(w, "sramd_spice_warm_starts_total %d\n", sp.WarmStarts)
	fmt.Fprintln(w, "# HELP sramd_spice_fallbacks_total Homotopy/cold-restart fallbacks by kind.")
	fmt.Fprintln(w, "# TYPE sramd_spice_fallbacks_total counter")
	fmt.Fprintf(w, "sramd_spice_fallbacks_total{kind=\"cold_restart\"} %d\n", sp.ColdRestarts)
	fmt.Fprintf(w, "sramd_spice_fallbacks_total{kind=\"gmin\"} %d\n", sp.GminFallbacks)
	fmt.Fprintf(w, "sramd_spice_fallbacks_total{kind=\"source\"} %d\n", sp.SourceFallbacks)
	fmt.Fprintln(w, "# HELP sramd_spice_newton_iters_per_solve Mean Newton iterations per solve since start.")
	fmt.Fprintln(w, "# TYPE sramd_spice_newton_iters_per_solve gauge")
	fmt.Fprintf(w, "sramd_spice_newton_iters_per_solve %g\n", sp.ItersPerSolve())
	fmt.Fprintln(w, "# HELP sramd_spice_noise_evals_total Noise-source current evaluations in stochastic transients.")
	fmt.Fprintln(w, "# TYPE sramd_spice_noise_evals_total counter")
	fmt.Fprintf(w, "sramd_spice_noise_evals_total %d\n", sp.NoiseEvals)
	fmt.Fprintln(w, "# HELP sramd_spice_ensemble_runs_total Stochastic-transient ensemble members completed.")
	fmt.Fprintln(w, "# TYPE sramd_spice_ensemble_runs_total counter")
	fmt.Fprintf(w, "sramd_spice_ensemble_runs_total %d\n", sp.EnsembleRuns)
	fmt.Fprintln(w, "# HELP sramd_spice_ensemble_steps_total Transient timesteps across all ensemble members.")
	fmt.Fprintln(w, "# TYPE sramd_spice_ensemble_steps_total counter")
	fmt.Fprintf(w, "sramd_spice_ensemble_steps_total %d\n", sp.EnsembleSteps)

	// The DRV-memo counters follow every static-DRV lookup: Table I, the
	// characterization anchors and the fault-map calibration.
	es := engine.Stats()
	fmt.Fprintln(w, "# HELP sramd_engine_drv_solves_total Static-DRV bisections run by the shared DRV memo.")
	fmt.Fprintln(w, "# TYPE sramd_engine_drv_solves_total counter")
	fmt.Fprintf(w, "sramd_engine_drv_solves_total %d\n", es.DRVSolves)
	fmt.Fprintln(w, "# HELP sramd_engine_drv_cache_hits_total Static-DRV lookups answered by the shared DRV memo.")
	fmt.Fprintln(w, "# TYPE sramd_engine_drv_cache_hits_total counter")
	fmt.Fprintf(w, "sramd_engine_drv_cache_hits_total %d\n", es.DRVCacheHits)
	fmt.Fprintln(w, "# HELP sramd_engine_drv_cache_entries Static-DRV thresholds held by the shared DRV memo.")
	fmt.Fprintln(w, "# TYPE sramd_engine_drv_cache_entries gauge")
	fmt.Fprintf(w, "sramd_engine_drv_cache_entries %d\n", engine.DRVCacheLen())

	// Yield-estimator counters: the screen economy of the rare-event
	// path plus last-estimate health gauges (ESS, shift, tail depth).
	ys := yield.Stats()
	fmt.Fprintln(w, "# HELP sramd_yield_runs_total Completed full yield estimates.")
	fmt.Fprintln(w, "# TYPE sramd_yield_runs_total counter")
	fmt.Fprintf(w, "sramd_yield_runs_total %d\n", ys.Runs)
	fmt.Fprintln(w, "# HELP sramd_yield_partials_total Completed shard partials.")
	fmt.Fprintln(w, "# TYPE sramd_yield_partials_total counter")
	fmt.Fprintf(w, "sramd_yield_partials_total %d\n", ys.Partials)
	fmt.Fprintln(w, "# HELP sramd_yield_decisions_total Yield samples by outcome.")
	fmt.Fprintln(w, "# TYPE sramd_yield_decisions_total counter")
	fmt.Fprintf(w, "sramd_yield_decisions_total{outcome=\"screened\"} %d\n", ys.Screens)
	fmt.Fprintf(w, "sramd_yield_decisions_total{outcome=\"escalated\"} %d\n", ys.Escalations)
	fmt.Fprintln(w, "# HELP sramd_yield_screen_ratio Screened over screened+escalated since start.")
	fmt.Fprintln(w, "# TYPE sramd_yield_screen_ratio gauge")
	fmt.Fprintf(w, "sramd_yield_screen_ratio %g\n", ys.ScreenRatio())
	fmt.Fprintln(w, "# HELP sramd_yield_exact_solves_total Full DRV bisections spent on yield estimation.")
	fmt.Fprintln(w, "# TYPE sramd_yield_exact_solves_total counter")
	fmt.Fprintf(w, "sramd_yield_exact_solves_total %d\n", ys.ExactSolves)
	fmt.Fprintln(w, "# HELP sramd_yield_failures_total Exact-confirmed failing samples.")
	fmt.Fprintln(w, "# TYPE sramd_yield_failures_total counter")
	fmt.Fprintf(w, "sramd_yield_failures_total %d\n", ys.Failures)
	fmt.Fprintln(w, "# HELP sramd_yield_last_ess Effective sample size of the latest full estimate.")
	fmt.Fprintln(w, "# TYPE sramd_yield_last_ess gauge")
	fmt.Fprintf(w, "sramd_yield_last_ess %g\n", ys.LastESS)
	fmt.Fprintln(w, "# HELP sramd_yield_last_shift_sigma Mean-shift norm of the latest full estimate.")
	fmt.Fprintln(w, "# TYPE sramd_yield_last_shift_sigma gauge")
	fmt.Fprintf(w, "sramd_yield_last_shift_sigma %g\n", ys.LastShiftNorm)
	fmt.Fprintln(w, "# HELP sramd_yield_last_tail_sigma Tail depth of the latest full estimate.")
	fmt.Fprintln(w, "# TYPE sramd_yield_last_tail_sigma gauge")
	fmt.Fprintf(w, "sramd_yield_last_tail_sigma %g\n", ys.LastSigma)

	// Fault-map corpus counters: generation/evaluation throughput plus
	// last-run health gauges (best coverage, fault density).
	fs := faultmap.Stats()
	fmt.Fprintln(w, "# HELP sramd_faultmap_runs_total Completed full fault-map corpus evaluations.")
	fmt.Fprintln(w, "# TYPE sramd_faultmap_runs_total counter")
	fmt.Fprintf(w, "sramd_faultmap_runs_total %d\n", fs.Runs)
	fmt.Fprintln(w, "# HELP sramd_faultmap_partials_total Completed fault-map shard partials.")
	fmt.Fprintln(w, "# TYPE sramd_faultmap_partials_total counter")
	fmt.Fprintf(w, "sramd_faultmap_partials_total %d\n", fs.Partials)
	fmt.Fprintln(w, "# HELP sramd_faultmap_maps_total Fault maps generated and evaluated.")
	fmt.Fprintln(w, "# TYPE sramd_faultmap_maps_total counter")
	fmt.Fprintf(w, "sramd_faultmap_maps_total %d\n", fs.Maps)
	fmt.Fprintln(w, "# HELP sramd_faultmap_fault_bits_total Fault bits across all generated maps.")
	fmt.Fprintln(w, "# TYPE sramd_faultmap_fault_bits_total counter")
	fmt.Fprintf(w, "sramd_faultmap_fault_bits_total %d\n", fs.FaultBits)
	fmt.Fprintln(w, "# HELP sramd_faultmap_detected_total Detected fault bits, summed over tests.")
	fmt.Fprintln(w, "# TYPE sramd_faultmap_detected_total counter")
	fmt.Fprintf(w, "sramd_faultmap_detected_total %d\n", fs.Detected)
	fmt.Fprintln(w, "# HELP sramd_faultmap_dropped_failures_total Miscompares beyond the bounded capture.")
	fmt.Fprintln(w, "# TYPE sramd_faultmap_dropped_failures_total counter")
	fmt.Fprintf(w, "sramd_faultmap_dropped_failures_total %d\n", fs.Dropped)
	fmt.Fprintln(w, "# HELP sramd_faultmap_last_best_coverage Best per-test coverage of the latest full run.")
	fmt.Fprintln(w, "# TYPE sramd_faultmap_last_best_coverage gauge")
	fmt.Fprintf(w, "sramd_faultmap_last_best_coverage %g\n", fs.LastBestCoverage)
	fmt.Fprintln(w, "# HELP sramd_faultmap_last_bits_per_map Fault density of the latest full run.")
	fmt.Fprintln(w, "# TYPE sramd_faultmap_last_bits_per_map gauge")
	fmt.Fprintf(w, "sramd_faultmap_last_bits_per_map %g\n", fs.LastBitsPerMap)

	// Noise-scan counters: the dynamic-retention experiment's ensemble
	// spend plus the latest measured tightening of the DRV threshold.
	ns := noisescan.Stats()
	fmt.Fprintln(w, "# HELP sramd_noise_scans_total Completed full flip-probability scans.")
	fmt.Fprintln(w, "# TYPE sramd_noise_scans_total counter")
	fmt.Fprintf(w, "sramd_noise_scans_total %d\n", ns.Scans)
	fmt.Fprintln(w, "# HELP sramd_noise_partials_total Completed noise-scan shard partials.")
	fmt.Fprintln(w, "# TYPE sramd_noise_partials_total counter")
	fmt.Fprintf(w, "sramd_noise_partials_total %d\n", ns.Partials)
	fmt.Fprintln(w, "# HELP sramd_noise_points_total Rail points measured across all scans.")
	fmt.Fprintln(w, "# TYPE sramd_noise_points_total counter")
	fmt.Fprintf(w, "sramd_noise_points_total %d\n", ns.Points)
	fmt.Fprintln(w, "# HELP sramd_noise_flips_total Flipped ensemble members observed across all scans.")
	fmt.Fprintln(w, "# TYPE sramd_noise_flips_total counter")
	fmt.Fprintf(w, "sramd_noise_flips_total %d\n", ns.Flips)
	fmt.Fprintln(w, "# HELP sramd_noise_last_tighten_volts DRV tightening of the latest full scan.")
	fmt.Fprintln(w, "# TYPE sramd_noise_last_tighten_volts gauge")
	fmt.Fprintf(w, "sramd_noise_last_tighten_volts %g\n", ns.LastTighten)

	// Diagnosis counters: the matcher economy (how much of the
	// dictionary each signature touched) and streaming-ingest volume.
	ds := diag.Stats()
	fmt.Fprintln(w, "# HELP sramd_diag_matches_total Completed dictionary matches (either matcher).")
	fmt.Fprintln(w, "# TYPE sramd_diag_matches_total counter")
	fmt.Fprintf(w, "sramd_diag_matches_total %d\n", ds.Matches)
	fmt.Fprintln(w, "# HELP sramd_diag_exact_total Matches that hit distance zero.")
	fmt.Fprintln(w, "# TYPE sramd_diag_exact_total counter")
	fmt.Fprintf(w, "sramd_diag_exact_total %d\n", ds.Exact)
	fmt.Fprintln(w, "# HELP sramd_diag_fallbacks_total Index queries served by the linear scan.")
	fmt.Fprintln(w, "# TYPE sramd_diag_fallbacks_total counter")
	fmt.Fprintf(w, "sramd_diag_fallbacks_total %d\n", ds.Fallbacks)
	fmt.Fprintln(w, "# HELP sramd_diag_scanned_total Full distance evaluations across all matches.")
	fmt.Fprintln(w, "# TYPE sramd_diag_scanned_total counter")
	fmt.Fprintf(w, "sramd_diag_scanned_total %d\n", ds.Scanned)
	fmt.Fprintln(w, "# HELP sramd_diag_mean_scanned Mean distance evaluations per match since start.")
	fmt.Fprintln(w, "# TYPE sramd_diag_mean_scanned gauge")
	fmt.Fprintf(w, "sramd_diag_mean_scanned %g\n", ds.MeanScanned())
	fmt.Fprintln(w, "# HELP sramd_diag_stream_requests_total /v1/diagnose requests served.")
	fmt.Fprintln(w, "# TYPE sramd_diag_stream_requests_total counter")
	fmt.Fprintf(w, "sramd_diag_stream_requests_total %d\n", ds.StreamRequests)
	fmt.Fprintln(w, "# HELP sramd_diag_stream_signatures_total Signatures diagnosed over the stream.")
	fmt.Fprintln(w, "# TYPE sramd_diag_stream_signatures_total counter")
	fmt.Fprintf(w, "sramd_diag_stream_signatures_total %d\n", ds.StreamSignatures)
	fmt.Fprintln(w, "# HELP sramd_diag_stream_errors_total Malformed or failed stream lines.")
	fmt.Fprintln(w, "# TYPE sramd_diag_stream_errors_total counter")
	fmt.Fprintf(w, "sramd_diag_stream_errors_total %d\n", ds.StreamErrors)
	fmt.Fprintln(w, "# HELP sramd_diag_stream_bytes_total Request bytes consumed by the stream.")
	fmt.Fprintln(w, "# TYPE sramd_diag_stream_bytes_total counter")
	fmt.Fprintf(w, "sramd_diag_stream_bytes_total %d\n", ds.StreamBytes)

	fmt.Fprintln(w, "# HELP sramd_job_duration_seconds Job execution latency.")
	fmt.Fprintln(w, "# TYPE sramd_job_duration_seconds histogram")
	cum := int64(0)
	for i, le := range s.DurationBuckets {
		cum += s.DurationCounts[i]
		fmt.Fprintf(w, "sramd_job_duration_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += s.DurationCounts[len(s.DurationBuckets)]
	fmt.Fprintf(w, "sramd_job_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "sramd_job_duration_seconds_sum %g\n", s.DurationSum)
	fmt.Fprintf(w, "sramd_job_duration_seconds_count %d\n", s.DurationCount)
}

// snapshot is the expvar view: the same numbers as /metrics, as a map.
func snapshot(mgr *jobs.Manager, st *store.Store) map[string]any {
	s := mgr.Stats()
	sp := spice.Stats()
	es := engine.Stats()
	ys := yield.Stats()
	fs := faultmap.Stats()
	ds := diag.Stats()
	ns := noisescan.Stats()
	out := map[string]any{
		"noise_scans":            ns.Scans,
		"noise_partials":         ns.Partials,
		"noise_points":           ns.Points,
		"noise_flips":            ns.Flips,
		"noise_last_tighten":     ns.LastTighten,
		"spice_noise_evals":      sp.NoiseEvals,
		"spice_ensemble_runs":    sp.EnsembleRuns,
		"spice_ensemble_steps":   sp.EnsembleSteps,
		"diag_matches":           ds.Matches,
		"diag_exact":             ds.Exact,
		"diag_fallbacks":         ds.Fallbacks,
		"diag_scanned":           ds.Scanned,
		"diag_stream_requests":   ds.StreamRequests,
		"diag_stream_signatures": ds.StreamSignatures,
		"diag_stream_errors":     ds.StreamErrors,
		"diag_stream_bytes":      ds.StreamBytes,
		"faultmap_runs":          fs.Runs,
		"faultmap_partials":      fs.Partials,
		"faultmap_maps":          fs.Maps,
		"faultmap_fault_bits":    fs.FaultBits,
		"faultmap_detected":      fs.Detected,
		"faultmap_dropped":       fs.Dropped,
		"faultmap_last_best":     fs.LastBestCoverage,
		"faultmap_last_bits_map": fs.LastBitsPerMap,
		"yield_runs":             ys.Runs,
		"yield_partials":         ys.Partials,
		"yield_screened":         ys.Screens,
		"yield_escalations":      ys.Escalations,
		"yield_exact_solves":     ys.ExactSolves,
		"yield_failures":         ys.Failures,
		"yield_last_ess":         ys.LastESS,
		"yield_last_shift_sigma": ys.LastShiftNorm,
		"yield_last_tail_sigma":  ys.LastSigma,
		"engine_drv_solves":      es.DRVSolves,
		"engine_drv_cache_hits":  es.DRVCacheHits,
		"engine_drv_entries":     engine.DRVCacheLen(),
		"jobs_queued":            s.Queued,
		"jobs_running":           s.Running,
		"jobs_done":              s.Done,
		"jobs_failed":            s.Failed,
		"jobs_canceled":          s.Canceled,
		"cache_hits":             s.CacheHits,
		"cache_misses":           s.CacheMisses,
		"sweep_tasks_done":       s.TasksDone,
		"job_seconds_sum":        s.DurationSum,
		"jobs_measured":          s.DurationCount,
		"spice_solves":           sp.Solves,
		"spice_newton_iters":     sp.NewtonIters,
		"spice_warm_starts":      sp.WarmStarts,
		"spice_cold_restarts":    sp.ColdRestarts,
		"spice_gmin_fallbacks":   sp.GminFallbacks,
		"spice_source_fallbacks": sp.SourceFallbacks,
		"spice_iters_per_solve":  sp.ItersPerSolve(),
	}
	if st != nil {
		out["store_entries"] = st.Len()
	}
	return out
}
