package spice

import "sramtest/internal/metrics"

// Solver counters, cumulative since process start. Parallel sweeps (one
// circuit per worker, many workers) account globally through atomic adds
// without contention on a lock. The counters observe behaviour only; no
// solver decision reads them.
var (
	statSolves          = metrics.NewCounter("sramd_spice_solves_total", "Top-level operating-point/transient solves.")
	statNewtonIters     = metrics.NewCounter("sramd_spice_newton_iters_total", "Newton iterations across all solves.")
	statWarmStarts      = metrics.NewCounter("sramd_spice_warm_starts_total", "Solves seeded from a previous solution.")
	statFallbacks       = metrics.NewCounterVec("sramd_spice_fallbacks_total", "Homotopy/cold-restart fallbacks by kind.", "kind", "cold_restart", "gmin", "source")
	statColdRestarts    = statFallbacks.With("cold_restart")
	statGminFallbacks   = statFallbacks.With("gmin")
	statSourceFallbacks = statFallbacks.With("source")
	statNoiseEvals      = metrics.NewCounter("sramd_spice_noise_evals_total", "Noise-source current evaluations in stochastic transients.")
	statEnsembleRuns    = metrics.NewCounter("sramd_spice_ensemble_runs_total", "Stochastic-transient ensemble members completed.")
	statEnsembleSteps   = metrics.NewCounter("sramd_spice_ensemble_steps_total", "Transient timesteps across all ensemble members.")
)

func init() {
	metrics.GaugeFunc("sramd_spice_newton_iters_per_solve", "Mean Newton iterations per solve since start.",
		func() float64 { return Stats().ItersPerSolve() })
}

// SolverStats is a snapshot of the cumulative solver counters.
type SolverStats struct {
	Solves          int64 // top-level OP/Tran solve calls
	NewtonIters     int64 // Newton iterations summed over all attempts
	WarmStarts      int64 // solves seeded with a warm-start initial guess
	ColdRestarts    int64 // warm solves retried from zero after homotopy failed
	GminFallbacks   int64 // solves that needed gmin stepping
	SourceFallbacks int64 // solves that needed source stepping
	NoiseEvals      int64 // NoiseSource stamp evaluations in transient solves
	EnsembleRuns    int64 // noise-ensemble member runs accounted by the engine
	EnsembleSteps   int64 // accepted transient steps within ensemble runs
}

// Stats returns a snapshot of the cumulative solver counters.
func Stats() SolverStats {
	return SolverStats{
		Solves:          statSolves.Load(),
		NewtonIters:     statNewtonIters.Load(),
		WarmStarts:      statWarmStarts.Load(),
		ColdRestarts:    statColdRestarts.Load(),
		GminFallbacks:   statGminFallbacks.Load(),
		SourceFallbacks: statSourceFallbacks.Load(),
		NoiseEvals:      statNoiseEvals.Load(),
		EnsembleRuns:    statEnsembleRuns.Load(),
		EnsembleSteps:   statEnsembleSteps.Load(),
	}
}

// Sub returns the per-interval delta s − prev, for benchmarks that
// bracket a region of work with two snapshots.
func (s SolverStats) Sub(prev SolverStats) SolverStats {
	return SolverStats{
		Solves:          s.Solves - prev.Solves,
		NewtonIters:     s.NewtonIters - prev.NewtonIters,
		WarmStarts:      s.WarmStarts - prev.WarmStarts,
		ColdRestarts:    s.ColdRestarts - prev.ColdRestarts,
		GminFallbacks:   s.GminFallbacks - prev.GminFallbacks,
		SourceFallbacks: s.SourceFallbacks - prev.SourceFallbacks,
		NoiseEvals:      s.NoiseEvals - prev.NoiseEvals,
		EnsembleRuns:    s.EnsembleRuns - prev.EnsembleRuns,
		EnsembleSteps:   s.EnsembleSteps - prev.EnsembleSteps,
	}
}

// ItersPerSolve returns the mean Newton iterations per top-level solve, or
// 0 when no solves have run.
func (s SolverStats) ItersPerSolve() float64 {
	if s.Solves == 0 {
		return 0
	}
	return float64(s.NewtonIters) / float64(s.Solves)
}
