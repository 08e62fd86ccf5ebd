package jobs

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"testing"
)

// update regenerates the pinned canonical bytes and keys of
// testdata/jobs.json from the current Normalize implementation:
//
//	go test ./internal/jobs -run TestCanonicalGolden -update
//
// New cases are added by appending {name, input} objects to the golden
// file and running -update; never hand-edit canonical strings or hashes.
// Review the resulting diff: a changed pre-existing case means every
// cached result of that spec is silently invalidated.
var update = flag.Bool("update", false, "rewrite testdata/jobs.json canonical bytes and keys")

type goldenCase struct {
	Name      string          `json:"name"`
	Input     json.RawMessage `json:"input"`
	Canonical string          `json:"canonical"`
	Key       string          `json:"key"`
}

// TestCanonicalGolden pins the canonical job-spec serialization to
// testdata/jobs.json. The canonical bytes are the result store's cache
// key: if this test fails, the serialization drifted and every cached
// result would be silently invalidated — change the golden file only
// with a deliberate cache-versioning decision (see the -update flag).
func TestCanonicalGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/jobs.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("golden file holds no cases")
	}
	if *update {
		for i := range cases {
			var s Spec
			if err := json.Unmarshal(cases[i].Input, &s); err != nil {
				t.Fatalf("%s: %v", cases[i].Name, err)
			}
			canon, err := s.Canonical()
			if err != nil {
				t.Fatalf("%s: %v", cases[i].Name, err)
			}
			cases[i].Canonical = string(canon)
			if cases[i].Key, err = s.Key(); err != nil {
				t.Fatalf("%s: %v", cases[i].Name, err)
			}
		}
		out, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/jobs.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote testdata/jobs.json with %d cases", len(cases))
		return
	}
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			var s Spec
			if err := json.Unmarshal(c.Input, &s); err != nil {
				t.Fatal(err)
			}
			canon, err := s.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			if string(canon) != c.Canonical {
				t.Errorf("canonical drifted:\n got %s\nwant %s", canon, c.Canonical)
			}
			key, err := s.Key()
			if err != nil {
				t.Fatal(err)
			}
			if key != c.Key {
				t.Errorf("key drifted: got %s want %s", key, c.Key)
			}
		})
	}
}

func TestCanonicalIsIdempotent(t *testing.T) {
	s := Spec{Kind: KindCharac, Charac: &CharacSpec{Defects: []int{19, 16}}}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	c1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := n.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != string(c2) {
		t.Errorf("Canonical(Normalize(s)) != Canonical(s):\n%s\n%s", c2, c1)
	}
}

func TestNormalizeRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Kind: "bogus"},
		{},
		{Kind: KindCharac, Exp: &ExpSpec{Samples: 1}},
		{Kind: KindExp},
		{Kind: KindExp, Exp: &ExpSpec{Samples: 0}},
		{Kind: KindExp, Exp: &ExpSpec{Samples: 1 << 21}},
		{Kind: KindExp, Exp: &ExpSpec{Samples: 1}, Charac: &CharacSpec{}},
		{Kind: KindCharac, Charac: &CharacSpec{Defects: []int{33}}},
		{Kind: KindCharac, Charac: &CharacSpec{Defects: []int{0}}},
		{Kind: KindCharac, Charac: &CharacSpec{CaseStudies: []int{6}}},
		{Kind: KindTestFlow, TestFlow: &TestFlowSpec{Defects: []int{-1}}},
		{Kind: KindTestFlow, Charac: &CharacSpec{}},
		{Kind: KindTestFlow, TestFlow: &TestFlowSpec{}, Diag: &DiagSpec{}},
		{Kind: KindDiag, Diag: &DiagSpec{Defects: []int{33}}},
		{Kind: KindDiag, Diag: &DiagSpec{CaseStudies: []int{6}}},
		{Kind: KindDiag, Diag: &DiagSpec{Decades: []float64{-1e3}}},
		{Kind: KindDiag, Diag: &DiagSpec{Decades: []float64{0}}},
		{Kind: KindDiag, Exp: &ExpSpec{Samples: 1}},
		{Kind: KindDiag, CSV: true},
		{Kind: KindYield},
		{Kind: KindYield, Yield: &YieldSpec{Samples: 0}},
		{Kind: KindYield, Yield: &YieldSpec{Samples: 1 << 23}},
		{Kind: KindYield, Yield: &YieldSpec{Samples: 64, Vref: -0.1}},
		{Kind: KindYield, Yield: &YieldSpec{Samples: 64, Method: "bogus"}},
		{Kind: KindYield, Yield: &YieldSpec{Samples: 64, Shards: 4, Shard: 4}},
		{Kind: KindYield, Yield: &YieldSpec{Samples: 64, Shards: 4, Shard: -1}},
		{Kind: KindYield, CSV: true, Yield: &YieldSpec{Samples: 64, Shards: 4}},
		{Kind: KindYield, Yield: &YieldSpec{Samples: 64}, Exp: &ExpSpec{Samples: 1}},
		{Kind: KindExp, Exp: &ExpSpec{Samples: 1}, Yield: &YieldSpec{Samples: 64}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Maps: -1}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Maps: 1 << 21}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Vref: -0.1}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Defect: -1e-5}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Tests: []string{"March X"}}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Tests: []string{"March m-LZ", "March m-LZ"}}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{RandomOps: -1}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{RandomOps: 1 << 23}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Shards: 4, Shard: 4}},
		{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Shards: 4, Shard: -1}},
		{Kind: KindFaultMap, CSV: true, FaultMap: &FaultMapSpec{Shards: 4}},
		{Kind: KindFaultMap, Yield: &YieldSpec{Samples: 64}},
		{Kind: KindYield, Yield: &YieldSpec{Samples: 64}, FaultMap: &FaultMapSpec{}},
		{Kind: KindCharac, FaultMap: &FaultMapSpec{}},
		{Kind: KindCharac, Criterion: "bogus"},
		{Kind: KindExp, Exp: &ExpSpec{Samples: 1}, Criterion: "noise"},
		{Kind: KindTestFlow, Criterion: "noise"},
		{Kind: KindDiag, Criterion: "noise"},
		{Kind: KindNoiseScan, Criterion: "noise"},
		{Kind: KindCharac, Noise: &NoiseSpec{Runs: 4}},
		{Kind: KindCharac, Criterion: "noise", Noise: &NoiseSpec{Runs: -1}},
		{Kind: KindCharac, Criterion: "noise", Noise: &NoiseSpec{Sigma: -1e-9}},
		{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{CaseStudy: 6}},
		{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{Points: 1}},
		{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{Points: 1 << 21}},
		{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{Below: -0.01}},
		{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{Shards: 4, Shard: 4}},
		{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{Shards: 4, Shard: -1}},
		{Kind: KindNoiseScan, CSV: true, NoiseScan: &NoiseScanSpec{Shards: 4}},
		{Kind: KindNoiseScan, Yield: &YieldSpec{Samples: 64}},
		{Kind: KindYield, Yield: &YieldSpec{Samples: 64}, NoiseScan: &NoiseScanSpec{}},
		// The retired approximate backend and unknown engines.
		{Kind: KindCharac, Engine: "surrogate"},
		{Kind: KindDiag, Engine: "surrogate.v1"},
		{Kind: KindCharac, Engine: "nosuch"},
	}
	for i, s := range bad {
		if _, err := s.Normalize(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: err = %v, want ErrBadSpec", i, err)
		}
	}
}

func TestEquivalentSpecsShareKeys(t *testing.T) {
	a := Spec{Kind: KindExp, Exp: &ExpSpec{Samples: 64}}
	b := Spec{Kind: KindExp, Exp: &ExpSpec{Samples: 64, Seed: 2013}}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("default seed and explicit 2013 must share a cache key")
	}
	c := Spec{Kind: KindExp, Exp: &ExpSpec{Samples: 64, Seed: 7}}
	if kc, _ := c.Key(); kc == ka {
		t.Error("different seeds must not share a cache key")
	}
}

// TestTieredSpecsShareSpiceKeys: the retired tiered backend was
// byte-identical to spice, so every spelling of it folds onto the spice
// spec's store key.
func TestTieredSpecsShareSpiceKeys(t *testing.T) {
	for _, kind := range []Kind{KindCharac, KindTestFlow, KindDiag} {
		want, err := Spec{Kind: kind}.Key()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"spice", "tiered", "tiered.v1"} {
			if got, err := (Spec{Kind: kind, Engine: name}).Key(); err != nil || got != want {
				t.Errorf("%s engine %q: key %s, %v; want the spice key %s", kind, name, got, err, want)
			}
		}
	}
}

func TestYieldSpecsShareKeys(t *testing.T) {
	// The bare default and the fully explicit spelling of the defaults
	// (seed 2013, Vref 0.5, method "is") must land on one cache key.
	a := Spec{Kind: KindYield, Yield: &YieldSpec{Samples: 64}}
	b := Spec{Kind: KindYield, Yield: &YieldSpec{
		Samples: 64, Seed: 2013, Vref: 0.5, Method: "is",
	}}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("default yield spec and explicit spelling must share a cache key")
	}
	c := Spec{Kind: KindYield, Yield: &YieldSpec{Samples: 64, Method: "blockade"}}
	if kc, _ := c.Key(); kc == ka {
		t.Error("different estimators must not share a cache key")
	}
	d := Spec{Kind: KindYield, Yield: &YieldSpec{Samples: 64, Shards: 2, Shard: 1}}
	if kd, _ := d.Key(); kd == ka {
		t.Error("a shard job must not share the whole estimate's key")
	}
}

func TestFaultMapSpecsShareKeys(t *testing.T) {
	// The bare default and the fully explicit spelling of the defaults
	// (256 maps, seed 2013, the whole March library) must land on one
	// cache key.
	a := Spec{Kind: KindFaultMap}
	b := Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{
		Maps: 256, Seed: 2013, Vref: 0.40, Defect: 2e-5,
		Tests: []string{"MATS+", "March C-", "March SS", "March LZ", "March m-LZ"},
	}}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("default faultmap spec and explicit spelling must share a cache key")
	}
	// Test order is semantic (evaluation and report order), so a
	// reordered selection is a different job.
	c := Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Tests: []string{"March m-LZ", "March C-"}}}
	d := Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Tests: []string{"March C-", "March m-LZ"}}}
	kc, _ := c.Key()
	kd, _ := d.Key()
	if kc == kd {
		t.Error("reordered test selections must not share a cache key")
	}
	e := Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{Shards: 2, Shard: 1}}
	if ke, _ := e.Key(); ke == ka {
		t.Error("a shard job must not share the whole corpus's key")
	}
	f := Spec{Kind: KindFaultMap, FaultMap: &FaultMapSpec{BIST: true}}
	if kf, _ := f.Key(); kf == ka {
		t.Error("the BIST evaluator must not share the software executor's key")
	}
}

func TestNoiseScanSpecsShareKeys(t *testing.T) {
	// The bare default and the fully explicit spelling of the defaults
	// (CS5, 13 points, the engine's accelerated-noise parameters) must
	// land on one cache key.
	a := Spec{Kind: KindNoiseScan}
	b := Spec{Kind: KindNoiseScan,
		NoiseScan: &NoiseScanSpec{CaseStudy: 5, Points: 13, Below: 0.02, Above: 0.10},
		Noise: &NoiseSpec{
			Runs: 8, Sigma: 2e-9, SlotDt: 1e-6, Window: 4e-5,
			PFail: 0.5, Tol: 2e-3, MaxTighten: 0.15, Seed: 2013,
		}}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("default noisescan spec and explicit spelling must share a cache key")
	}
	c := Spec{Kind: KindNoiseScan, Noise: &NoiseSpec{Sigma: 5e-9}}
	if kc, _ := c.Key(); kc == ka {
		t.Error("different noise amplitudes must not share a cache key")
	}
	d := Spec{Kind: KindNoiseScan, NoiseScan: &NoiseScanSpec{Shards: 2, Shard: 1}}
	if kd, _ := d.Key(); kd == ka {
		t.Error("a shard job must not share the whole scan's key")
	}
}

func TestCriterionSpecsShareKeys(t *testing.T) {
	// "static" is the process default: folding it away must leave the
	// pre-criterion cache key untouched, so every result cached before
	// the criterion seam existed stays addressable.
	a := Spec{Kind: KindCharac, Charac: &CharacSpec{Defects: []int{16}}}
	b := Spec{Kind: KindCharac, Criterion: "static", Charac: &CharacSpec{Defects: []int{16}}}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error(`criterion "static" must fold to the pre-criterion cache key`)
	}
	// The noise criterion changes the retention decision, so it must be
	// part of the content address — with its parameters.
	c := Spec{Kind: KindCharac, Criterion: "noise", Charac: &CharacSpec{Defects: []int{16}}}
	kc, err := c.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Error("the noise criterion must not share the static criterion's key")
	}
	d := Spec{Kind: KindCharac, Criterion: "noise", Noise: &NoiseSpec{Runs: 16},
		Charac: &CharacSpec{Defects: []int{16}}}
	if kd, _ := d.Key(); kd == kc {
		t.Error("different ensemble sizes must not share a cache key")
	}
}

func TestDiagSpecsShareKeys(t *testing.T) {
	// The bare default and its explicit spelling (unsorted, with a
	// duplicate decade) must land on one cache key.
	a := Spec{Kind: KindDiag}
	b := Spec{Kind: KindDiag, Diag: &DiagSpec{
		Decades:     []float64{1e8, 1e3, 1e4, 1e5, 1e6, 1e7, 1e3},
		CaseStudies: []int{5, 4, 3, 2, 1, 1},
	}}
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("default diag spec and explicit spelling must share a cache key")
	}
	c := Spec{Kind: KindDiag, Diag: &DiagSpec{BaseOnly: true}}
	if kc, _ := c.Key(); kc == ka {
		t.Error("base-only dictionaries must not share the full build's key")
	}
}
