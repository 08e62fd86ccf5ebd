package yield

import (
	"math"
	"math/rand"

	"sramtest/internal/process"
	"sramtest/internal/sweep"
)

// screen is the conservative surrogate that blocks the bulk of samples
// from ever reaching an exact DRV solve: a linear DRV_DS1 response
// surface over the six ΔVth axes, widened into an uncertainty band
// (rail) by a margin calibrated from exact residuals near the failure
// boundary. The blockade rule is strictly one-sided: a sample is
// screened out only when its whole band — for both stored values —
// lies below the threshold; anything the band cannot clear escalates
// to exact confirmation, so a screen decision can cost solves but
// never a missed failure (within the calibrated margin's honesty).
type screen struct {
	c     float64           // DRV_DS1 of the symmetric cell (V)
	g     process.Variation // ∂DRV_DS1/∂σ_t central-difference gradient (V per σ)
	gnorm float64           // Euclidean norm of g

	// The band half-width grows with distance from the origin:
	// margin(‖v‖) = marginA + marginSlope·max(0, ‖v‖−marginN0). The
	// envelope is calibrated from exact residuals in the bulk (around
	// ‖v‖ ≈ marginN0) and near the failure boundary, so bulk bands stay
	// tight enough to screen while boundary bands absorb the linear
	// model's growing error.
	marginA     float64 // band half-width at the bulk (V)
	marginSlope float64 // half-width growth per σ of distance (V/σ)
	marginN0    float64 // mean bulk probe distance (σ)

	shift      process.Variation // boundary shift μ along +g (σ units; zero if none)
	shiftNorm  float64
	onBoundary bool // a failure boundary exists inside the ±6σ support

	corner      process.Variation // support corner maximizing the linear model
	cornerExact float64           // exact DRV_DS1 at that corner (V)

	calSolves      int64 // exact solves spent on gradient + residual calibration
	boundarySolves int64 // exact solves spent on the boundary bisection

	vref float64 // the reference the screen was calibrated against (V)
}

// Calibration knobs. The gradient step sits mid-range of the sigma
// scale; the margin safety factor and floor keep the band honest where
// the residual probe under-samples.
const (
	gradStep     = 2.0   // σ units for central differences
	marginSafety = 1.5   // multiplier on the worst observed residual
	marginFloor  = 0.002 // V; never trust the surrogate below 2 mV
	residProbes  = 8     // residual probe points per sampling lobe
	boundaryTol  = 0.02  // σ units; bisection tolerance of the boundary search
	refineStep   = 0.5   // σ units for the local gradients of the min-norm refinement
	refineIters  = 3     // max min-norm refinement rounds
)

// rail is a bounded estimate of a cell's DRV_DS (V): the linear
// prediction widened by the screen's margin on both sides.
type rail struct {
	Lo, Hi float64
}

// Mid returns the band's center — the linear point estimate.
func (r rail) Mid() float64 { return 0.5 * (r.Lo + r.Hi) }

// Width returns the band's total width.
func (r rail) Width() float64 { return r.Hi - r.Lo }

// calSeedChunk is the virtual chunk index feeding the residual probe
// RNG. It sits far above any real sample chunk (MaxSamples/Chunk), so
// calibration never replays a sampling stream.
const calSeedChunk = 1 << 30

// predict1 evaluates the linear DRV_DS1 model at v.
func (s *screen) predict1(v process.Variation) float64 {
	p := s.c
	for t := process.CellTransistor(0); t < process.NumCellTransistors; t++ {
		p += s.g[t] * v[t]
	}
	return p
}

// margin returns the band half-width at distance n from the origin.
func (s *screen) margin(n float64) float64 {
	return s.marginA + s.marginSlope*math.Max(0, n-s.marginN0)
}

// band returns the screen's DRV_DS band at v: the max over both
// stored-value lobes of the linear prediction, widened by the
// distance-dependent margin. (Max of two intervals: [max lo, max hi].)
func (s *screen) band(v process.Variation) rail {
	p1 := s.predict1(v)
	p0 := s.predict1(v.Mirror())
	p := math.Max(p1, p0)
	m := s.margin(vnorm(v))
	return rail{Lo: p - m, Hi: p + m}
}

// certified reports whether the screen proves P(DRV_DS > vref) = 0
// inside the ±6σ support: no boundary was found along the steepest
// direction, the exact DRV at the linear model's worst support corner
// clears vref, and even the band-widened linear maximum over the whole
// support stays below vref.
func (s *screen) certified(vref float64) bool {
	if s.onBoundary {
		return false
	}
	lmax := s.c + s.margin(vnorm(s.corner))
	for t := process.CellTransistor(0); t < process.NumCellTransistors; t++ {
		lmax += 6 * math.Abs(s.g[t])
	}
	return s.cornerExact < vref && lmax < vref
}

// vnorm is the Euclidean norm of a variation.
func vnorm(v process.Variation) float64 {
	n := 0.0
	for _, x := range v {
		n += x * x
	}
	return math.Sqrt(n)
}

// minNorm walks a boundary point toward the minimum-norm (dominating)
// point of the failure region, which is where the importance shift must
// sit: failures concentrate around it under the target law, and a shift
// anywhere else leaves closer-to-origin failures carrying exponentially
// larger likelihood ratios that wreck the estimator's variance. Each
// round measures the local DRV gradient, projects the origin onto the
// boundary's tangent plane, and re-bisects along the projected ray;
// rounds that stop shrinking the norm end the walk.
func (s *screen) minNorm(v0 process.Variation, vref float64, solve func(process.Variation) float64) process.Variation {
	bs := func(v process.Variation) float64 {
		s.boundarySolves++
		s.calSolves--
		return solve(v)
	}
	best := v0
	for iter := 0; iter < refineIters; iter++ {
		// Local gradient at the current boundary point.
		var lg process.Variation
		lnorm2 := 0.0
		for t := range lg {
			hi, lo := best, best
			hi[t] += refineStep
			lo[t] -= refineStep
			lg[t] = (bs(hi) - bs(lo)) / (2 * refineStep)
			lnorm2 += lg[t] * lg[t]
		}
		if lnorm2 == 0 {
			break
		}
		// Project the origin onto the tangent plane {v : lg·(v−best) = 0}
		// and take the ray through the projection.
		dot := 0.0
		for t := range best {
			dot += lg[t] * best[t]
		}
		scale := dot / lnorm2
		var dir process.Variation
		dmax, dn := 0.0, 0.0
		for t := range dir {
			dir[t] = scale * lg[t]
			dn += dir[t] * dir[t]
		}
		dn = math.Sqrt(dn)
		if dn == 0 {
			break
		}
		for t := range dir {
			dir[t] /= dn
			if a := math.Abs(dir[t]); a > dmax {
				dmax = a
			}
		}
		// Re-bisect the boundary crossing along the projected ray.
		tmax := 6 / dmax
		at := func(t float64) process.Variation {
			var v process.Variation
			for i := range v {
				v[i] = t * dir[i]
			}
			return v
		}
		if bs(at(tmax)) < vref {
			break // ray exits the support before failing
		}
		lo, hi := 0.0, tmax
		for hi-lo > boundaryTol {
			mid := 0.5 * (lo + hi)
			if bs(at(mid)) >= vref {
				hi = mid
			} else {
				lo = mid
			}
		}
		next := at(hi)
		improved := vnorm(next) < vnorm(best)*(1-boundaryTol)
		if vnorm(next) < vnorm(best) {
			best = next
		}
		if !improved {
			break
		}
	}
	return best
}

// calibrate builds the screen for (model, cond, vref) with a fixed
// exact-solve budget: 13 solves for the center + gradient, ~15 for the
// boundary bisection, and 4·residProbes residual probes. Every step is
// sequential and seeded, so the calibration — and with it every number
// the estimators report — is a pure function of (cond, vref, seed).
func calibrate(m Model, cond process.Condition, vref float64, seed int64) *screen {
	s := &screen{vref: vref}
	solve := func(v process.Variation) float64 {
		s.calSolves++
		return m.DRV1(v, cond)
	}

	// Center and central-difference gradient.
	s.c = solve(process.Variation{})
	for t := process.CellTransistor(0); t < process.NumCellTransistors; t++ {
		var hi, lo process.Variation
		hi[t], lo[t] = gradStep, -gradStep
		s.g[t] = (solve(hi) - solve(lo)) / (2 * gradStep)
		s.gnorm += s.g[t] * s.g[t]
	}
	s.gnorm = math.Sqrt(s.gnorm)

	// Steepest-ascent unit direction and the largest step that keeps
	// every component inside the ±6σ support.
	var dir process.Variation
	tmax := 0.0
	if s.gnorm > 0 {
		dmax := 0.0
		for t := range dir {
			dir[t] = s.g[t] / s.gnorm
			if a := math.Abs(dir[t]); a > dmax {
				dmax = a
			}
		}
		tmax = 6 / dmax
	}

	// The linear model's worst support corner, checked exactly: the
	// anchor of the P = 0 certificate.
	for t := range s.corner {
		if s.g[t] > 0 {
			s.corner[t] = 6
		} else if s.g[t] < 0 {
			s.corner[t] = -6
		}
	}
	s.cornerExact = solve(s.corner)

	// Boundary search: bisect DRV_DS1(t·dir) ≥ vref along the ray. The
	// response is monotone along the gradient direction in the regime of
	// interest; the corner probe above caps the bracket.
	at := func(t float64) process.Variation {
		var v process.Variation
		for i := range v {
			v[i] = t * dir[i]
		}
		return v
	}
	bsolve := func(t float64) bool {
		s.boundarySolves++
		s.calSolves--
		return solve(at(t)) >= vref
	}
	var tstar float64
	switch {
	case s.gnorm == 0 || tmax == 0:
		// Flat model: no direction to search.
	case bsolve(0):
		tstar, s.onBoundary = 0, true
	case !bsolve(tmax):
		// No failure along the ray inside the support.
	default:
		lo, hi := 0.0, tmax
		for hi-lo > boundaryTol {
			mid := 0.5 * (lo + hi)
			if bsolve(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
		tstar, s.onBoundary = hi, true
	}
	if s.onBoundary {
		s.shift = s.minNorm(at(tstar), vref, solve)
		s.shiftNorm = vnorm(s.shift)
	} else {
		// Park the residual probes at the support edge along the ray —
		// the closest thing to a boundary region the support contains.
		s.shift = at(tmax)
		s.shiftNorm = tmax
	}

	// Margin calibration: exact residuals at probe points drawn around
	// the origin (the bulk) and around the shift (the boundary region),
	// each with its mirror image so both stored-value lobes are covered.
	// The worst residual of each probe cloud anchors one end of the
	// distance-linear margin envelope, with a safety factor and a floor.
	rng := rand.New(rand.NewSource(sweep.ChunkSeed(seed, calSeedChunk)))
	probe := func(v process.Variation) float64 {
		worst := 0.0
		for _, pv := range [2]process.Variation{v, v.Mirror()} {
			if r := math.Abs(solve(pv) - s.predict1(pv)); r > worst {
				worst = r
			}
		}
		return worst
	}
	var zero process.Variation
	var r0, r1, n0, n1 float64
	for i := 0; i < residProbes; i++ {
		v := sampleShifted(rng, zero)
		r0 = math.Max(r0, probe(v))
		n0 += vnorm(v)
		v = sampleShifted(rng, s.shift)
		r1 = math.Max(r1, probe(v))
		n1 += vnorm(v)
	}
	n0 /= residProbes
	n1 /= residProbes
	s.marginN0 = n0
	s.marginA = marginSafety*r0 + marginFloor
	if n1 > n0 && r1 > r0 {
		s.marginSlope = marginSafety * (r1 - r0) / (n1 - n0)
	}
	return s
}
