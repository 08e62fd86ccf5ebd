package faultmap

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"sramtest/internal/march"
	"sramtest/internal/process"
)

// synthModel is the analytic test stand-in for the DRV bisection: DRV
// linear in one variation axis, so the calibrated fit has known
// moments (mu = synthBase, sigma = synthSlope) and runs in nanoseconds.
type synthModel struct{}

const (
	synthBase  = 0.30 // V
	synthSlope = 0.05 // V per sigma of MPcc1
)

func (synthModel) DRV1(v process.Variation, _ process.Condition) float64 {
	return synthBase + synthSlope*v[process.MPcc1]
}

// testCond is the Monte-Carlo pin of the repo's characterization jobs.
var testCond = process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}

// testParams is a small but non-trivial corpus: 24 maps = 3 chunks,
// two March tests plus a random stream, the synthetic model, and a
// rail deep enough into the fitted tail for a few DRF bits per map.
func testParams() Params {
	return Params{
		Maps:  24,
		Seed:  7,
		Cond:  testCond,
		Vref:  0.50,
		Tests: []march.Test{march.MarchMLZ(), march.MarchCMinus()},
		Random: []march.RandomSpec{
			{Ops: 2000, Seed: 5, DwellEvery: 256},
		},
		Model: synthModel{},
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWorkerInvariance pins the determinism contract: the full result
// is byte-identical at any worker count.
func TestWorkerInvariance(t *testing.T) {
	var want string
	for _, workers := range []int{1, 4, 8} {
		p := testParams()
		p.Workers = workers
		res, err := Estimate(context.Background(), p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := mustJSON(t, res)
		if want == "" {
			want = got
			if res.Bits == 0 {
				t.Fatal("corpus has no fault bits — the invariance check is vacuous")
			}
			continue
		}
		if got != want {
			t.Errorf("workers=%d produced different bytes", workers)
		}
	}
}

// TestShardMergeByteIdentity pins the cluster contract: shard partials,
// round-tripped through their JSON wire format and merged, reproduce
// the unsharded run byte-for-byte.
func TestShardMergeByteIdentity(t *testing.T) {
	full, err := Estimate(context.Background(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	parts := make([]Partial, shards)
	for s := 0; s < shards; s++ {
		p := testParams()
		p.Shards, p.Shard = shards, s
		part, err := ShardPartial(context.Background(), p)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		// Round-trip the wire format: a merge consumes decoded JSON, not
		// in-process structs.
		b, err := json.Marshal(part)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &parts[s]); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergePartials(parts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, merged), mustJSON(t, full); got != want {
		t.Errorf("merged result differs from the unsharded run:\n got %s\nwant %s", got, want)
	}
}

// TestMergeValidation: a merge must refuse incomplete or inconsistent
// shard sets.
func TestMergeValidation(t *testing.T) {
	const shards = 2
	parts := make([]Partial, shards)
	for s := 0; s < shards; s++ {
		p := testParams()
		p.Shards, p.Shard = shards, s
		part, err := ShardPartial(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		parts[s] = part
	}
	if _, err := MergePartials(parts[:1]); err == nil {
		t.Error("merge of 1 of 2 shards must fail")
	}
	dup := []Partial{parts[0], parts[0]}
	if _, err := MergePartials(dup); err == nil {
		t.Error("merge of a duplicated shard must fail")
	}
	bad := []Partial{parts[0], parts[1]}
	bad[1].Seed++
	if _, err := MergePartials(bad); err == nil {
		t.Error("merge across different seeds must fail")
	}
	tooNew := []Partial{parts[0], parts[1]}
	tooNew[0].Version++
	if _, err := MergePartials(tooNew); err == nil {
		t.Error("merge of an unknown partial version must fail")
	}
	short := []Partial{parts[0], parts[1]}
	short[1].Chunks = append([]ChunkStat(nil), parts[1].Chunks...)
	short[1].Chunks[0].Tests = short[1].Chunks[0].Tests[1:]
	if _, err := MergePartials(short); !errors.Is(err, ErrBadParams) {
		t.Errorf("merge of a chunk missing a test tally: err = %v, want ErrBadParams", err)
	}
}

// TestMapDeterminism: the same (params, index) regenerates the
// byte-identical map from any generator instance; different seeds
// diverge.
func TestMapDeterminism(t *testing.T) {
	g1, err := NewGenerator(testParams())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(testParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 5, 23} {
		if h1, h2 := g1.Map(idx).Hash(), g2.Map(idx).Hash(); h1 != h2 {
			t.Errorf("map %d hash differs across generator instances", idx)
		}
	}
	other := testParams()
	other.Seed = 8
	g3, err := NewGenerator(other)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Map(0).Hash() == g3.Map(0).Hash() {
		t.Error("different corpus seeds produced identical maps")
	}
}

// TestParamsValidation covers the rejection paths.
func TestParamsValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Estimate(ctx, Params{}); err == nil {
		t.Error("zero maps accepted")
	}
	p := testParams()
	p.Engine = "fpga"
	if _, err := Estimate(ctx, p); err == nil {
		t.Error("unknown engine accepted")
	}
	p = testParams()
	p.Shards, p.Shard = 4, 1
	if _, err := Estimate(ctx, p); err == nil {
		t.Error("Estimate must refuse a sharded params (use ShardPartial)")
	}
	p = testParams()
	p.Shards = 2
	if res, err := Estimate(ctx, p); !errors.Is(err, ErrBadParams) {
		t.Errorf("Estimate with Shards 2 = (%+v, %v), want ErrBadParams", res, err)
	}
	p = testParams()
	p.Shards, p.Shard = 4, 7
	if _, err := ShardPartial(ctx, p); err == nil {
		t.Error("out-of-range shard accepted")
	}
	p = testParams()
	p.Tests = []march.Test{march.MarchMLZ(), march.MarchMLZ()}
	if _, err := Estimate(ctx, p); err == nil {
		t.Error("duplicate test names accepted")
	}
}
