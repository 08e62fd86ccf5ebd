package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"sramtest/internal/fault"
	"sramtest/internal/faultmap"
	"sramtest/internal/jobs"
	"sramtest/internal/march"
	"sramtest/internal/process"
	"sramtest/internal/sram"
	"sramtest/internal/sweep"
)

// The faultmap workload evaluates seeded corpora of fmMaps fault maps
// against March m-LZ and March C-, each corpus as fmShards shard jobs
// that the client merges with faultmap.MergePartials. A shard of two
// chunks (16 maps) keeps both sweep workers busy and takes about 1.7 s
// on a 2-core host, most of it the shard's DRV calibration, so a 30 s
// run completes three or more corpora and holds over twenty latency
// samples. The whole library plus a random stream, as in the archived
// corpus, costs too much per map to repeat inside a window.
const (
	fmMaps   = 112
	fmShards = 7
)

// fmTests are the tests every corpus is checked on: the two-dwell March
// m-LZ must detect every retention fault and the dwell-free March C-
// none.
var fmTests = []string{"March m-LZ", "March C-"}

// The archived corpus of results/faultmap.txt: 256 maps at seed 2013,
// the whole March library plus a 20000-op random stream. At the
// benchmark's default seed a run also evaluates it, after the timed
// window, and requires the merged report to match the archive byte for
// byte.
const (
	artifactPath   = "results/faultmap.txt"
	artifactSeed   = 2013
	artifactMaps   = 256
	artifactRandom = 20000
)

// fmJob is one faultmap shard job.
type fmJob struct {
	maps, randomOps, shards, shard int
	seed                           int64
	tests                          []string // nil = the whole March library
}

// spec is the job as sramd receives it.
func (j fmJob) spec() ([]byte, error) {
	return json.Marshal(jobs.Spec{Kind: jobs.KindFaultMap, FaultMap: &jobs.FaultMapSpec{
		Maps: j.maps, Seed: j.seed, Tests: j.tests, RandomOps: j.randomOps, Shards: j.shards, Shard: j.shard,
	}})
}

// params is the job as the replay evaluates it in-process, spelled as
// sramd's faultmap runner spells it.
func (j fmJob) params(model faultmap.Model) faultmap.Params {
	p := faultmap.Params{
		Maps:   j.maps,
		Seed:   j.seed,
		Cond:   process.Condition{Corner: process.FS, VDD: 1.1, TempC: 125}, // sramd's fixed Monte-Carlo condition
		Shards: j.shards,
		Shard:  j.shard,
		Model:  model,
	}
	for _, name := range j.tests {
		t, _ := march.ByName(name)
		p.Tests = append(p.Tests, t)
	}
	if j.randomOps > 0 {
		p.Random = []march.RandomSpec{faultmap.DefaultRandom(j.randomOps, j.seed)}
	}
	return p
}

// fmCorpus is one corpus of a run: its shard jobs, sramd's shard results
// and the merged report.
type fmCorpus struct {
	jobs   []fmJob
	shards [][]byte
	merged []byte
}

func newCorpus(maps int, seed int64, tests []string, randomOps, shards int) *fmCorpus {
	c := &fmCorpus{}
	for s := 0; s < shards; s++ {
		c.jobs = append(c.jobs, fmJob{maps: maps, randomOps: randomOps, shards: shards, shard: s, seed: seed, tests: tests})
	}
	return c
}

// corpusSeed is the seed of corpus r of a run.
func corpusSeed(seed int64, r int) int64 {
	s := seed + int64(r)*7919
	if s == 0 {
		s = artifactSeed // sramd reads seed 0 as its default seed
	}
	return s
}

func runFaultMap(cfg config) (outcome, error) {
	var o outcome
	e := e2e{conns: 1, tail: 0.50}
	var done []*fmCorpus
	err := e.measure(cfg, jobSetups, nil, func(d *daemon) error {
		start := time.Now()
		for r := 0; r == 0 || time.Since(start) < cfg.window(); r++ {
			c := newCorpus(fmMaps, corpusSeed(cfg.seed, r), fmTests, 0, fmShards)
			ok, err := evalCorpus(d, &o, &e.lat, c, checkDRFCoverage)
			if err != nil {
				return err
			}
			if ok {
				e.items += fmMaps
				done = append(done, c)
			}
		}
		return nil
	})
	if err != nil {
		return o, err
	}
	if cfg.seed == artifactSeed {
		if err := checkArtifact(cfg, &o); err != nil {
			return o, err
		}
	}
	if !cfg.trace {
		e.report(&o)
		return o, nil
	}
	err = layerReport(cfg, &o, &e, "", func(tr *tracer) (replayed, error) { return replayFaultMap(tr, done) })
	return o, err
}

// evalCorpus submits a corpus shard by shard, one job outstanding, then
// merges the partials and checks the merged result; it reports whether
// every answer checked out. lat, when non-nil, collects the per-shard
// latencies.
func evalCorpus(d *daemon, o *outcome, lat *[]float64, c *fmCorpus, check func(faultmap.Result, []byte) error) (bool, error) {
	parts := make([]faultmap.Partial, len(c.jobs))
	ok := true
	for i, j := range c.jobs {
		spec, err := j.spec()
		if err != nil {
			return false, err
		}
		t0 := time.Now()
		res, err := d.submit(spec)
		if err == nil {
			err = decodePartial(res, j, &parts[i])
		}
		if lat != nil {
			*lat = append(*lat, ms(time.Since(t0)))
		}
		o.attempted++
		c.shards = append(c.shards, res)
		if err != nil {
			o.failed++
			ok = false
			o.mismatch("faultmap seed %d shard %d: %v", j.seed, j.shard, err)
		}
	}
	if !ok {
		return false, nil
	}
	res, err := faultmap.MergePartials(parts)
	if err == nil {
		c.merged = renderCorpus(res)
		err = check(res, c.merged)
	}
	if err != nil {
		o.failed += len(c.jobs)
		o.mismatch("faultmap seed %d: %v", c.jobs[0].seed, err)
		return false, nil
	}
	return true, nil
}

// decodePartial parses a shard result and checks that it answers job j.
func decodePartial(raw []byte, j fmJob, p *faultmap.Partial) error {
	if err := json.Unmarshal(raw, p); err != nil {
		return fmt.Errorf("shard result: %w", err)
	}
	if p.Seed != j.seed || p.Maps != j.maps || p.Shards != j.shards || p.Shard != j.shard {
		return fmt.Errorf("shard result for seed %d, %d maps, shard %d of %d", p.Seed, p.Maps, p.Shard, p.Shards)
	}
	return nil
}

// renderCorpus renders a merged corpus as sramd renders a whole faultmap
// job: the summary and coverage tables, each followed by a blank line.
func renderCorpus(res faultmap.Result) []byte {
	var buf bytes.Buffer
	_ = faultmap.Summary(res).Write(&buf) // writes to a bytes.Buffer cannot fail
	buf.WriteByte('\n')
	_ = faultmap.Coverage(res).Write(&buf)
	buf.WriteByte('\n')
	return buf.Bytes()
}

// checkDRFCoverage requires the paper's claim at array scale: March
// m-LZ detects every retention fault of the corpus, March C- none.
func checkDRFCoverage(res faultmap.Result, _ []byte) error {
	cov := func(test string) (float64, error) {
		t, ok := res.Test(test)
		if !ok {
			return 0, fmt.Errorf("%s missing from the merged result", test)
		}
		c, ok := t.GroupCoverage(res.ByClass, "DRF")
		if !ok {
			return 0, errors.New("corpus holds no retention fault")
		}
		return c, nil
	}
	mlz, err := cov("March m-LZ")
	if err != nil {
		return err
	}
	cm, err := cov("March C-")
	if err != nil {
		return err
	}
	if mlz != 1 || cm != 0 {
		return fmt.Errorf("DRF coverage: March m-LZ %.4f (want 1), March C- %.4f (want 0)", mlz, cm)
	}
	return nil
}

// checkArtifact evaluates the archived corpus on a fresh daemon, outside
// the timed window, and requires the merged report to equal
// results/faultmap.txt byte for byte.
func checkArtifact(cfg config, o *outcome) error {
	want, err := os.ReadFile(artifactPath)
	if err != nil {
		return err
	}
	d, err := startDaemon(cfg)
	if err != nil {
		return err
	}
	c := newCorpus(artifactMaps, artifactSeed, nil, artifactRandom, fmShards)
	_, err = evalCorpus(d, o, nil, c, func(_ faultmap.Result, got []byte) error {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("merged report differs from %s:\n%s", artifactPath, got)
		}
		return nil
	})
	return errors.Join(err, d.stop())
}

// fmCounts are a replay's program counts, summed across sweep workers.
type fmCounts struct{ ops, bits atomic.Int64 }

// replayFaultMap recomputes the run's corpora in-process — each shard as
// faultmap.ShardPartial computes it, then the merge — and compares the
// bytes with sramd's.
func replayFaultMap(tr *tracer, corpora []*fmCorpus) (replayed, error) {
	var r replayed
	var cnt fmCounts
	for ci, c := range corpora {
		parts := make([]faultmap.Partial, len(c.jobs))
		for i, j := range c.jobs {
			tr.setItem(ci*len(c.jobs) + i)
			var raw []byte
			var err error
			tr.do("faultmap", func() { raw, parts[i], err = replayShard(tr, j, &cnt) })
			if err != nil {
				return r, err
			}
			r.items++
			if !bytes.Equal(raw, c.shards[i]) {
				r.wrong++
			}
		}
		var merged []byte
		var err error
		tr.do("faultmap.merge", func() {
			var res faultmap.Result
			if res, err = faultmap.MergePartials(parts); err == nil {
				merged = renderCorpus(res)
			}
		})
		if err != nil {
			return r, err
		}
		if !bytes.Equal(merged, c.merged) {
			r.wrong++
		}
	}
	r.marchOps, r.faultBits = cnt.ops.Load(), cnt.bits.Load()
	return r, nil
}

// replayShard computes one shard's partial as faultmap.ShardPartial
// does — calibrate, then generate, apply and evaluate each map of the
// owned chunks — with each step a span.
func replayShard(tr *tracer, j fmJob, cnt *fmCounts) ([]byte, faultmap.Partial, error) {
	var model faultmap.Model = faultmap.CellModel{}
	if tr != nil {
		model = tracedModel{tr}
	}
	var g *faultmap.Generator
	var err error
	tr.do("faultmap.calib", func() { g, err = faultmap.NewGenerator(j.params(model)) })
	if err != nil {
		return nil, faultmap.Partial{}, err
	}
	p := g.Params()
	names := make([]string, 0, len(p.Tests)+len(p.Random))
	for _, t := range p.Tests {
		names = append(names, t.Name)
	}
	for _, rs := range p.Random {
		rs, err := rs.WithDefaults()
		if err != nil {
			return nil, faultmap.Partial{}, err
		}
		names = append(names, rs.Name)
	}
	var owned []int
	for c := p.Shard; c*faultmap.MapChunk < p.Maps; c += p.Shards {
		owned = append(owned, c)
	}
	parent := tr.current()
	chunks, err := sweep.Map(len(owned), func(i int) (faultmap.ChunkStat, error) {
		return replayChunk(tr, parent, g, names, owned[i], cnt)
	})
	if err != nil {
		return nil, faultmap.Partial{}, err
	}
	part := faultmap.Partial{
		Version: faultmap.PartialVersion,
		Cond:    p.Cond,
		Vref:    p.Vref,
		Maps:    p.Maps,
		Seed:    p.Seed,
		Defect:  p.Defect,
		Engine:  p.Engine,
		Tests:   names,
		Shards:  p.Shards,
		Shard:   p.Shard,
		Calib:   g.Calib(),
		Chunks:  chunks,
	}
	raw, err := json.Marshal(part)
	return raw, part, err
}

// replayChunk is faultmap's per-chunk evaluation: each map is generated,
// applied to a fresh array for every test, run and scored.
func replayChunk(tr *tracer, parent int32, g *faultmap.Generator, names []string, c int, cnt *fmCounts) (faultmap.ChunkStat, error) {
	id := tr.begin("faultmap", parent)
	defer tr.end(id)
	p := g.Params()
	st := faultmap.ChunkStat{Chunk: c, Tests: make([]faultmap.TestTally, len(names))}
	for i := range st.Tests {
		st.Tests[i].Name = names[i]
	}
	h := sha256.New()
	for idx := c * faultmap.MapChunk; idx < min((c+1)*faultmap.MapChunk, p.Maps); idx++ {
		var m *faultmap.Map
		tr.timed("faultmap.gen", id, func() { m = g.Map(idx) })
		h.Write([]byte(m.Hash()))
		st.Maps++
		st.Bits += int64(m.Bits())
		for cl, n := range m.ByClass() {
			st.ByClass[cl] += n
		}
		cnt.bits.Add(int64(m.Bits()))
		for i := range names {
			det := make([]uint64, sram.Words)
			opts := march.RunOptions{FailureCap: 1, OnFailure: func(f march.Failure) { det[f.Addr] |= f.Expected ^ f.Got }}
			var mem *sram.SRAM
			tr.timed("faultmap.apply", id, func() { mem = m.NewSRAM() })
			var rep march.Report
			var err error
			tr.timed("march.run", id, func() {
				if i < len(p.Tests) {
					rep, err = march.RunWith(p.Tests[i], mem, opts)
					return
				}
				spec := p.Random[i-len(p.Tests)]
				spec.Seed ^= m.Seed
				rep, err = march.RunRandomWith(spec, mem, opts)
			})
			if err != nil {
				return st, err
			}
			cnt.ops.Add(int64(rep.Ops))
			tally(&st.Tests[i], m, det, rep)
		}
	}
	st.Digest = hex.EncodeToString(h.Sum(nil))
	return st, nil
}

// tally scores one run against a map as faultmap does: a fault bit is
// detected when some miscompare showed that bit of its word wrong.
func tally(t *faultmap.TestTally, m *faultmap.Map, det []uint64, rep march.Report) {
	detected := int64(0)
	check := func(addr, bit int, cl faultmap.Class) {
		if det[addr]>>uint(bit)&1 == 1 {
			detected++
			t.ByClass[cl]++
		}
	}
	for _, c := range m.DRF0 {
		check(c.Addr, c.Bit, faultmap.ClassDRF0)
	}
	for _, c := range m.DRF1 {
		check(c.Addr, c.Bit, faultmap.ClassDRF1)
	}
	for _, f := range m.Static {
		check(f.Victim.Addr, f.Victim.Bit, classOf(f.Kind))
	}
	t.Detected += detected
	t.Miscompares += int64(rep.TotalMiscompares)
	t.Dropped += int64(rep.DroppedFailures)
	if detected == int64(m.Bits()) {
		t.CleanMaps++
	}
}

// classOf is faultmap's class of a functional fault kind.
func classOf(k fault.Kind) faultmap.Class {
	switch k {
	case fault.SAF0:
		return faultmap.ClassSAF0
	case fault.SAF1:
		return faultmap.ClassSAF1
	case fault.TFUp:
		return faultmap.ClassTFUp
	case fault.TFDown:
		return faultmap.ClassTFDown
	case fault.CFid, fault.CFin, fault.CFst:
		return faultmap.ClassCF
	}
	return faultmap.ClassNone
}
