package noisescan

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// quickParams keeps scan tests fast: few points, small ensembles.
func quickParams() Params {
	p := Params{CaseStudy: 5, Points: 5}
	return p
}

// TestScanDeterministicAcrossWorkers: the scan is byte-identical at any
// worker count — the package's core determinism contract.
func TestScanDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	p1 := quickParams()
	p1.Workers = 1
	r1, err := Scan(ctx, p1)
	if err != nil {
		t.Fatal(err)
	}
	p4 := quickParams()
	p4.Workers = 4
	r4, err := Scan(ctx, p4)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(r1)
	b4, _ := json.Marshal(r4)
	if string(b1) != string(b4) {
		t.Fatalf("worker-count changed the scan:\n1: %s\n4: %s", b1, b4)
	}
}

// TestShardMergeMatchesLocal: a 1-, 2- and 3-shard fan-out merge to
// the exact bytes of the unsharded run (the cluster contract).
func TestShardMergeMatchesLocal(t *testing.T) {
	ctx := context.Background()
	full, err := Scan(ctx, quickParams())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(full)

	for _, shards := range []int{1, 2, 3} {
		parts := make([]Partial, shards)
		for s := 0; s < shards; s++ {
			p := quickParams()
			p.Shards, p.Shard = shards, s
			p.Workers = 1 + s // worker count must not matter here either
			if parts[s], err = ShardPartial(ctx, p); err != nil {
				t.Fatalf("shard %d/%d: %v", s, shards, err)
			}
		}
		merged, err := MergePartials(parts)
		if err != nil {
			t.Fatalf("merge %d shards: %v", shards, err)
		}
		if got, _ := json.Marshal(merged); string(got) != string(want) {
			t.Fatalf("%d-shard merge differs from local run:\nmerged: %s\nlocal:  %s", shards, got, want)
		}
	}
}

// TestPartialJSONRoundTrip: the wire format survives encoding/json
// bit-for-bit — what the cluster fan-out relies on.
func TestPartialJSONRoundTrip(t *testing.T) {
	p := quickParams()
	p.Shards, p.Shard = 2, 1
	part, err := ShardPartial(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(part)
	if err != nil {
		t.Fatal(err)
	}
	var back Partial
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(part, back) {
		t.Fatalf("round-trip changed the partial:\n%+v\n%+v", part, back)
	}
}

// TestMergeRejectsBadSets: version, count, duplicate and foreign-point
// violations are refused.
func TestMergeRejectsBadSets(t *testing.T) {
	ctx := context.Background()
	parts := make([]Partial, 2)
	var err error
	for s := 0; s < 2; s++ {
		p := quickParams()
		p.Shards, p.Shard = 2, s
		if parts[s], err = ShardPartial(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergePartials(nil); err == nil {
		t.Error("empty merge succeeded")
	}
	if _, err := MergePartials(parts[:1]); err == nil {
		t.Error("missing-shard merge succeeded")
	}
	dup := []Partial{parts[0], parts[0]}
	if _, err := MergePartials(dup); err == nil {
		t.Error("duplicate-shard merge succeeded")
	}
	bad := []Partial{parts[0], parts[1]}
	bad[1].Calib.EffDRV += 1e-6
	if _, err := MergePartials(bad); err == nil {
		t.Error("calibration-mismatch merge succeeded")
	}
	v := []Partial{parts[0], parts[1]}
	v[0].Version = 99
	if _, err := MergePartials(v); err == nil {
		t.Error("version-mismatch merge succeeded")
	}
}

// TestScanCurveShape: the curve brackets the criterion — fully flipped
// at the statically-dead bottom, quiet at the top, and the effective
// DRV inside the scan range with a positive tightening on CS5.
func TestScanCurveShape(t *testing.T) {
	res, err := Scan(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.CS != "CS5-1" {
		t.Fatalf("default case study %q, want CS5-1", res.CS)
	}
	if res.Tighten <= 0 {
		t.Errorf("CS5-1 tightening %.4f V, want > 0", res.Tighten)
	}
	first, last := res.Curve[0], res.Curve[len(res.Curve)-1]
	if first.PFlip != 1 {
		t.Errorf("below the static DRV P(flip) = %.2f, want 1", first.PFlip)
	}
	if last.PFlip != 0 {
		t.Errorf("at +%d mV P(flip) = %.2f, want 0", int(DefaultAbove*1e3), last.PFlip)
	}
	if res.EffDRV < res.StaticDRV || res.EffDRV > res.StaticDRV+res.Noise.MaxTighten {
		t.Errorf("effective DRV %.4f outside [static, static+cap]", res.EffDRV)
	}
}

// TestParamValidation rejects the malformed corners.
func TestParamValidation(t *testing.T) {
	bad := []Params{
		{CaseStudy: 6},
		{Points: 1},
		{Points: MaxPoints + 1},
		{Below: -0.01},
		{Shards: 2, Shard: 2},
		{Shards: 2, Shard: -1},
	}
	for i, p := range bad {
		if _, err := Scan(context.Background(), p); err == nil {
			t.Errorf("case %d: bad params accepted: %+v", i, p)
		}
	}
	p := quickParams()
	p.Shards = 2
	if res, err := Scan(context.Background(), p); !errors.Is(err, ErrBadParams) {
		t.Errorf("Scan with Shards 2 = (%+v, %v), want ErrBadParams", res, err)
	}
}

// TestReportRendering: the tables render and carry the headline rows.
func TestReportRendering(t *testing.T) {
	res, err := Scan(context.Background(), quickParams())
	if err != nil {
		t.Fatal(err)
	}
	s := Summary(res).String()
	for _, want := range []string{"EXP-NS", "CS5-1", "static DRV_DS", "tightening"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	c := Curve(res).String()
	if !strings.Contains(c, "P(flip)") || len(strings.Split(c, "\n")) < res.Points {
		t.Errorf("curve table short:\n%s", c)
	}
}

// TestStatsCounters: scans and partials tally.
func TestStatsCounters(t *testing.T) {
	scans, partials, points := statScans.Load(), statPartials.Load(), statPoints.Load()
	if _, err := Scan(context.Background(), quickParams()); err != nil {
		t.Fatal(err)
	}
	p := quickParams()
	p.Shards, p.Shard = 2, 0
	if _, err := ShardPartial(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if statScans.Load() != scans+1 || statPartials.Load() != partials+1 {
		t.Fatalf("counters did not advance: scans %d -> %d, partials %d -> %d",
			scans, statScans.Load(), partials, statPartials.Load())
	}
	if statPoints.Load() <= points || statLastTighten.Load() <= 0 {
		t.Fatalf("point/gauge counters stale: points %d -> %d, tighten %g",
			points, statPoints.Load(), statLastTighten.Load())
	}
}
