package yield

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sramtest/internal/num"
	"sramtest/internal/process"
)

// linModel is a synthetic linear DRV_DS1 surface c + g·v. With a
// mirror-antisymmetric gradient (mirror(g) = −g, the worst-case sign
// pattern) the two stored-value failure events are exactly disjoint and
// P(DRV_DS > vref) = 2·Φ̄((vref−c)/‖g‖) in closed form — the oracle the
// importance sampler is tested against.
type linModel struct {
	c float64
	g process.Variation
}

func (m linModel) DRV1(v process.Variation, _ process.Condition) float64 {
	d := m.c
	for t := range v {
		d += m.g[t] * v[t]
	}
	return d
}

// quadModel adds a mild quadratic term along the gradient, a stand-in
// for the real cell's curvature: the linear screen is wrong by a
// bounded, growing amount, exactly what the margin envelope must cover.
type quadModel struct {
	lin  linModel
	curv float64
}

func (m quadModel) DRV1(v process.Variation, cond process.Condition) float64 {
	d := m.lin.DRV1(v, cond)
	return d + m.curv*(d-m.lin.c)*(d-m.lin.c)
}

// oracleGrad is the mirror-antisymmetric gradient used by the synthetic
// tests: mirror(g) = −g, so DRV_DS0(v) = 2c − DRV_DS1(v).
var oracleGrad = process.Variation{
	process.MPcc1: -0.020, process.MNcc1: -0.015,
	process.MPcc2: +0.020, process.MNcc2: +0.015,
	process.MNcc3: -0.010, process.MNcc4: +0.010,
}

var testCond = process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}

func gnormOf(g process.Variation) float64 {
	n := 0.0
	for _, x := range g {
		n += x * x
	}
	return math.Sqrt(n)
}

// TestOracleIS checks the importance sampler against the analytic tail
// probability of the linear two-lobe model: the truth must land inside
// the estimator's own 95% interval, at a ~4.5σ depth no naive sampler
// of this budget could even see.
func TestOracleIS(t *testing.T) {
	m := linModel{c: 0.1, g: oracleGrad}
	z := 4.5
	vref := m.c + z*gnormOf(m.g)
	want := 2 * num.NormTail(z)

	est, err := New(MethodIS)
	if err != nil {
		t.Fatal(err)
	}
	res, err := est.Estimate(context.Background(), Params{
		Cond: testCond, Vref: vref, Samples: 2048, Seed: DefaultSeed, Model: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatalf("no failures observed at a %.1fσ boundary", z)
	}
	if res.CILo > want || want > res.CIHi {
		t.Errorf("analytic p = %.3g outside the estimate's CI [%.3g, %.3g] (p̂ = %.3g)",
			want, res.CILo, res.CIHi, res.P)
	}
	if res.P < want/3 || res.P > want*3 {
		t.Errorf("p̂ = %.3g more than 3× off the analytic %.3g", res.P, want)
	}
	if res.SigmaEquiv < 4 || res.SigmaEquiv > 5 {
		t.Errorf("SigmaEquiv = %.2f, want ≈ %.1f", res.SigmaEquiv, z)
	}
	if res.Speedup < 100 {
		t.Errorf("speedup = %.1f×, want ≥ 100× at a %.1fσ tail", res.Speedup, z)
	}
}

// TestBlockadeShallow cross-checks the blockade estimator against the
// same oracle at a depth its unshifted sampling can reach.
func TestBlockadeShallow(t *testing.T) {
	m := linModel{c: 0.1, g: oracleGrad}
	z := 2.0
	vref := m.c + z*gnormOf(m.g)
	want := 2 * num.NormTail(z)

	est, _ := New(MethodBlockade)
	res, err := est.Estimate(context.Background(), Params{
		Cond: testCond, Vref: vref, Samples: 4096, Seed: DefaultSeed, Model: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CILo > want || want > res.CIHi {
		t.Errorf("analytic p = %.3g outside the blockade CI [%.3g, %.3g] (p̂ = %.3g)",
			want, res.CILo, res.CIHi, res.P)
	}
	if res.ESS != float64(res.Samples) {
		t.Errorf("blockade ESS = %g, want n = %d", res.ESS, res.Samples)
	}
	// The screen must be earning its keep: most of the 4096 samples sit
	// far below a 2σ threshold and should never reach an exact solve.
	if res.Screens == 0 {
		t.Error("screen absorbed nothing")
	}
	if res.ExactSolves >= 2*int64(res.Samples) {
		t.Errorf("%d exact solves for %d samples: screen saved nothing", res.ExactSolves, res.Samples)
	}
}

// TestScreenNeverEatsFailure drives the conservativeness contract: no
// sample whose band clears the threshold may actually fail. This is the
// invariant that lets the blockade discard samples without confirming
// them.
func TestScreenNeverEatsFailure(t *testing.T) {
	m := quadModel{lin: linModel{c: 0.1, g: oracleGrad}, curv: 0.4}
	vref := 0.25
	s := calibrate(m, testCond, vref, DefaultSeed)
	prop := newProposal(s.shift)
	rng := rand.New(rand.NewSource(99))
	var zero process.Variation
	screened := 0
	for i := 0; i < 4000; i++ {
		v := prop.draw(rng)
		if i%2 == 0 {
			v = sampleShifted(rng, zero)
		}
		if band := s.band(v); band.Hi < vref {
			screened++
			exact := math.Max(m.DRV1(v, testCond), m.DRV1(v.Mirror(), testCond))
			if exact > vref {
				t.Fatalf("screened-out sample actually fails: band [%.3f, %.3f], exact %.3f, vref %.3f, v = %v",
					band.Lo, band.Hi, exact, vref, v)
			}
		}
	}
	if screened == 0 {
		t.Error("screen never engaged; the test exercised nothing")
	}
}

func TestRailGeometry(t *testing.T) {
	r := rail{Lo: 0.4, Hi: 0.6}
	if m := r.Mid(); m != 0.5 {
		t.Errorf("Mid() = %g", m)
	}
	if w := r.Width(); w < 0.2-1e-15 || w > 0.2+1e-15 {
		t.Errorf("Width() = %g", w)
	}
	point := rail{Lo: 0.7, Hi: 0.7}
	if point.Width() != 0 || point.Mid() != 0.7 {
		t.Errorf("point rail: %+v", point)
	}
}

// TestWorkerInvariance pins the determinism contract: the same Params
// produce a deeply equal Result and byte-identical report at any worker
// count.
func TestWorkerInvariance(t *testing.T) {
	m := quadModel{lin: linModel{c: 0.1, g: oracleGrad}, curv: 0.2}
	for _, method := range Methods() {
		est, _ := New(method)
		var base Result
		var baseText string
		for i, workers := range []int{1, 4, 16} {
			res, err := est.Estimate(context.Background(), Params{
				Cond: testCond, Vref: 0.24, Samples: 1024, Seed: DefaultSeed,
				Workers: workers, Model: m,
			})
			if err != nil {
				t.Fatal(err)
			}
			text := Report(res).String()
			if i == 0 {
				base, baseText = res, text
				continue
			}
			if !reflect.DeepEqual(res, base) {
				t.Errorf("%s: result at %d workers differs from 1 worker:\n%+v\nvs\n%+v", method, workers, res, base)
			}
			if text != baseText {
				t.Errorf("%s: report bytes differ at %d workers", method, workers)
			}
		}
	}
}

// TestShardMerge pins the cluster contract: partials computed shard by
// shard merge to exactly the unsharded estimate, for several shard
// counts.
func TestShardMerge(t *testing.T) {
	m := quadModel{lin: linModel{c: 0.1, g: oracleGrad}, curv: 0.2}
	p := Params{Cond: testCond, Vref: 0.24, Samples: 999, Seed: DefaultSeed, Model: m}
	for _, method := range Methods() {
		est, _ := New(method)
		want, err := est.Estimate(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 5} {
			parts := make([]Partial, shards)
			for s := 0; s < shards; s++ {
				sp := p
				sp.Shards, sp.Shard = shards, s
				parts[s], err = est.Partial(context.Background(), sp)
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := MergePartials(parts)
			if err != nil {
				t.Fatalf("%s/%d shards: %v", method, shards, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: merge of %d shards differs from the direct estimate:\n%+v\nvs\n%+v",
					method, shards, got, want)
			}
			if Report(got).String() != Report(want).String() {
				t.Errorf("%s: merged report bytes differ at %d shards", method, shards)
			}
		}
	}
}

// TestMergeRejects exercises the merger's consistency checks.
func TestMergeRejects(t *testing.T) {
	m := linModel{c: 0.1, g: oracleGrad}
	p := Params{Cond: testCond, Vref: 0.24, Samples: 256, Seed: DefaultSeed, Model: m, Shards: 2}
	est, _ := New(MethodIS)
	var parts [2]Partial
	var err error
	for s := 0; s < 2; s++ {
		sp := p
		sp.Shard = s
		parts[s], err = est.Partial(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
	}

	if _, err := MergePartials(nil); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := MergePartials([]Partial{parts[0]}); err == nil {
		t.Error("missing shard accepted")
	}
	if _, err := MergePartials([]Partial{parts[0], parts[0]}); err == nil {
		t.Error("duplicate shard accepted")
	}
	bad := parts[1]
	bad.Seed++
	if _, err := MergePartials([]Partial{parts[0], bad}); err == nil {
		t.Error("mismatched header accepted")
	}
	bad = parts[1]
	bad.Chunks = append([]ChunkStat(nil), bad.Chunks...)
	bad.Chunks[0].Chunk = 0 // chunk 0 belongs to shard 0
	if _, err := MergePartials([]Partial{parts[0], bad}); err == nil {
		t.Error("foreign chunk accepted")
	}
	bad = parts[1]
	bad.Chunks = bad.Chunks[:len(bad.Chunks)-1]
	if _, err := MergePartials([]Partial{parts[0], bad}); err == nil {
		t.Error("missing chunk accepted")
	}
	bad = parts[1]
	bad.Version++
	bad2 := parts[0]
	bad2.Version++
	if _, err := MergePartials([]Partial{bad2, bad}); err == nil {
		t.Error("future version accepted")
	}

	// A certified estimate samples nothing: its partials carry no chunks.
	flat := Params{Cond: testCond, Vref: 0.5, Samples: 256, Seed: DefaultSeed, Model: linModel{c: 0.05}, Shards: 2}
	var cert [2]Partial
	for s := range cert {
		sp := flat
		sp.Shard = s
		if cert[s], err = est.Partial(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
	}
	if !cert[0].Certified() {
		t.Fatal("flat 50 mV model at Vref = 500 mV not certified")
	}
	if _, err := MergePartials(cert[:]); err != nil {
		t.Errorf("certified merge rejected: %v", err)
	}
	cert[0].Chunks = []ChunkStat{{Chunk: 0, N: 32, SumW: 32, SumW2: 32}}
	if _, err := MergePartials(cert[:]); !errors.Is(err, ErrBadParams) {
		t.Errorf("certified partial carrying a chunk: err = %v, want ErrBadParams", err)
	}
}

// TestCertificate checks the P = 0 fast path: a model whose DRV is
// bounded far below Vref everywhere needs no sampling at all.
func TestCertificate(t *testing.T) {
	m := linModel{c: 0.05} // flat: DRV_DS ≡ 50 mV
	for _, method := range Methods() {
		est, _ := New(method)
		res, err := est.Estimate(context.Background(), Params{
			Cond: testCond, Vref: 0.5, Samples: 512, Seed: DefaultSeed, Model: m,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Certificate == "" {
			t.Fatalf("%s: no certificate for a flat 50 mV model at Vref = 500 mV", method)
		}
		if res.P != 0 || res.CIHi != 0 || res.Failures != 0 {
			t.Errorf("%s: certified result not exactly zero: %+v", method, res)
		}
		if res.Escalations != 0 || res.Screens != 0 {
			t.Errorf("%s: certificate path sampled anyway", method)
		}
		if !strings.Contains(Report(res).String(), "certified") {
			t.Errorf("%s: report does not mention the certificate", method)
		}
	}
}

// TestZeroFailures checks the honest zero: when sampling sees no
// failure and no certificate holds, P̂ = 0 must still carry a nonzero
// Wilson upper bound.
func TestZeroFailures(t *testing.T) {
	m := linModel{c: 0.1, g: oracleGrad}
	// Just above the model's max achievable DRV (corner value), inside
	// the band-widened linear max, so no certificate fires.
	corner := m.c
	for _, g := range m.g {
		corner += 6 * math.Abs(g)
	}
	est, _ := New(MethodIS)
	res, err := est.Estimate(context.Background(), Params{
		Cond: testCond, Vref: corner + 0.001, Samples: 512, Seed: DefaultSeed, Model: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certificate != "" {
		t.Fatalf("unexpected certificate %q", res.Certificate)
	}
	if res.P != 0 || res.Failures != 0 {
		t.Fatalf("expected zero failures, got %+v", res)
	}
	if !(res.CIHi > 0) {
		t.Errorf("zero-failure estimate must keep a nonzero upper bound, got %g", res.CIHi)
	}
	if res.Speedup != 0 {
		t.Errorf("speedup undefined without a failure, got %g", res.Speedup)
	}
}

// TestParamsValidation exercises the rejection paths.
func TestParamsValidation(t *testing.T) {
	est, _ := New(MethodIS)
	ctx := context.Background()
	cases := []Params{
		{},                                  // no samples
		{Samples: MaxSamples + 1},           // over cap
		{Samples: 64, Shards: 3, Shard: 3},  // shard out of range
		{Samples: 64, Shards: 3, Shard: -1}, // negative shard
	}
	for i, p := range cases {
		p.Cond, p.Model = testCond, linModel{c: 0.1, g: oracleGrad}
		if _, err := est.Partial(ctx, p); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	for _, method := range Methods() {
		est, _ := New(method)
		p := Params{Cond: testCond, Samples: 64, Model: linModel{c: 0.1, g: oracleGrad}, Shards: 2}
		if res, err := est.Estimate(ctx, p); !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: Estimate with Shards 2 = (%+v, %v), want ErrBadParams", method, res, err)
		}
	}
	if _, err := New("annealing"); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestDefaults pins the defaulting rules the job layer depends on.
func TestDefaults(t *testing.T) {
	p, err := Params{Samples: 10}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != DefaultSeed || p.Vref != DefaultVref || p.Shards != 1 || p.Shard != 0 {
		t.Errorf("unexpected defaults: %+v", p)
	}
	if _, ok := p.Model.(CellModel); !ok {
		t.Errorf("default model is %T, want CellModel", p.Model)
	}
}
