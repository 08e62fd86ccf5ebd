package yield

import (
	"math"

	"sramtest/internal/metrics"
)

// Yield counters, cumulative since process start and purely
// observational. They let an operator watch the screen economy (screens
// vs escalations), the exact-solve spend, and the health of the latest
// estimate (ESS, shift depth, tail depth) without parsing job artifacts.
var (
	statRuns        = metrics.NewCounter("sramd_yield_runs_total", "Completed full yield estimates.")
	statPartials    = metrics.NewCounter("sramd_yield_partials_total", "Completed shard partials.")
	statDecisions   = metrics.NewCounterVec("sramd_yield_decisions_total", "Yield samples by outcome.", "outcome", "screened", "escalated")
	statScreens     = statDecisions.With("screened")  // samples answered by the screen's band
	statEscalations = statDecisions.With("escalated") // samples escalated to exact confirmation
	statExactSolves = metrics.NewCounter("sramd_yield_exact_solves_total", "Full DRV bisections spent on yield estimation.")
	statFailures    = metrics.NewCounter("sramd_yield_failures_total", "Exact-confirmed failing samples.")

	// Last-run gauges, set by full estimates only.
	statLastESS   = metrics.NewGauge("sramd_yield_last_ess", "Effective sample size of the latest full estimate.")
	statLastShift = metrics.NewGauge("sramd_yield_last_shift_sigma", "Mean-shift norm of the latest full estimate.")
	statLastSigma = metrics.NewGauge("sramd_yield_last_tail_sigma", "Tail depth of the latest full estimate.")
)

func init() {
	metrics.GaugeFunc("sramd_yield_screen_ratio", "Screened over screened+escalated since start.",
		func() float64 { return Stats().ScreenRatio() })
}

// YieldStats is a snapshot of the cumulative yield counters.
type YieldStats struct {
	Runs        int64 // completed full estimates
	Partials    int64 // completed shard partials
	Screens     int64 // samples answered by the screen's band
	Escalations int64 // samples escalated to exact confirmation
	ExactSolves int64 // full DRV bisections spent
	Failures    int64 // exact-confirmed failures

	LastESS       float64 // effective sample size of the latest estimate
	LastShiftNorm float64 // |shift| of the latest estimate (σ units)
	LastSigma     float64 // tail depth Φ⁻¹(1−P) of the latest estimate
}

// Stats returns a snapshot of the cumulative yield counters.
func Stats() YieldStats {
	return YieldStats{
		Runs:          statRuns.Load(),
		Partials:      statPartials.Load(),
		Screens:       statScreens.Load(),
		Escalations:   statEscalations.Load(),
		ExactSolves:   statExactSolves.Load(),
		Failures:      statFailures.Load(),
		LastESS:       statLastESS.Load(),
		LastShiftNorm: statLastShift.Load(),
		LastSigma:     statLastSigma.Load(),
	}
}

// ScreenRatio returns the fraction of samples the screen's band
// answered without an exact solve, or 0 when none ran.
func (s YieldStats) ScreenRatio() float64 {
	total := s.Screens + s.Escalations
	if total == 0 {
		return 0
	}
	return float64(s.Screens) / float64(total)
}

// countRun folds a completed full estimate into the counters.
func countRun(r Result) {
	statRuns.Add(1)
	statScreens.Add(r.Screens)
	statEscalations.Add(r.Escalations)
	statExactSolves.Add(r.ExactSolves)
	statFailures.Add(int64(r.Failures))
	statLastESS.Set(r.ESS)
	statLastShift.Set(r.ShiftNorm)
	sigma := r.SigmaEquiv
	if math.IsInf(sigma, 0) || math.IsNaN(sigma) {
		sigma = 0
	}
	statLastSigma.Set(sigma)
}

// countPartial folds a completed shard partial into the counters. The
// last-run gauges are left to full (merged) estimates.
func countPartial(p Partial) {
	statPartials.Add(1)
	statExactSolves.Add(p.Calib.CalSolves + p.Calib.BoundarySolves)
	for _, st := range p.Chunks {
		statScreens.Add(st.Screens)
		statEscalations.Add(st.Escalations)
		statExactSolves.Add(st.Solves)
		statFailures.Add(int64(st.Fails))
	}
}
