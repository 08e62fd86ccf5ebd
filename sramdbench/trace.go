package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"sramtest/internal/diag"
	"sramtest/internal/engine"
	"sramtest/internal/engine/spicebe"
	"sramtest/internal/faultmap"
	"sramtest/internal/process"
	"sramtest/internal/regulator"
	"sramtest/internal/spice"
	"sramtest/internal/sweep"
)

// span is one timed call into a layer. Spans of one replayed item share
// its item id; parent indexes the enclosing span (-1 for none).
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int32
	item       int32
}

// tracer keeps a replay's spans in memory until the run ends. A nil
// *tracer records nothing, so the untraced replay runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cur   int32 // innermost span opened by do
	item  int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, item: t.item})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// current returns the innermost span opened by do (-1 for none).
func (t *tracer) current() int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

func (t *tracer) setCurrent(id int32) {
	t.mu.Lock()
	t.cur = id
	t.mu.Unlock()
}

// do runs fn inside a span nested under the current one, which it
// becomes while fn runs. Only the replay's driving goroutine calls do;
// calls on sweep workers use timed with an explicit parent.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := t.current()
	id := t.begin(name, parent)
	t.setCurrent(id)
	fn()
	t.end(id)
	t.setCurrent(parent)
}

// timed runs fn inside a span under parent.
func (t *tracer) timed(name string, parent int32, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// setItem tags the spans opened from now on with item id i.
func (t *tracer) setItem(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.item = int32(i)
	t.mu.Unlock()
}

// layers returns each span name's self time — the wall time during which
// a span of that name was the innermost open one, which on the replays'
// single sweep worker is its time minus its children's — and its call
// count. Where k spans are innermost at once, each gets 1/k.
func (t *tracer) layers() (self map[string]float64, calls map[string]int) {
	type event struct {
		at   time.Duration
		id   int32
		open bool
	}
	evs := make([]event, 0, 2*len(t.spans))
	for i, s := range t.spans {
		evs = append(evs, event{s.start, int32(i), true}, event{s.end, int32(i), false})
	}
	// At equal times opens go first, parents before children, and closes
	// last, children before parents, so zero-length spans nest too.
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		switch {
		case x.at != y.at:
			return x.at < y.at
		case x.open != y.open:
			return x.open
		case x.open:
			return x.id < y.id
		}
		return x.id > y.id
	})
	self, calls = map[string]float64{}, map[string]int{}
	open := make([]bool, len(t.spans))
	kids := make([]int, len(t.spans))
	leaves := map[int32]bool{}
	var last time.Duration
	for _, e := range evs {
		if dt := e.at - last; dt > 0 && len(leaves) > 0 {
			share := dt.Seconds() / float64(len(leaves))
			for id := range leaves {
				self[t.spans[id].name] += share
			}
		}
		last = e.at
		s := t.spans[e.id]
		if e.open {
			calls[s.name]++
			open[e.id], leaves[e.id] = true, true
			if s.parent >= 0 && open[s.parent] {
				kids[s.parent]++
				delete(leaves, s.parent)
			}
			continue
		}
		open[e.id] = false
		delete(leaves, e.id)
		if p := s.parent; p >= 0 && open[p] {
			if kids[p]--; kids[p] == 0 {
				leaves[p] = true
			}
		}
	}
	return self, calls
}

// durations returns the durations of the spans named name (ms).
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// dump writes the spans as tab-separated lines: name, start and end in
// ns since the replay began, parent span index (-1 for none), item id.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\titem")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.item)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEngine is the exact SPICE backend with every Eval.Lost and DRV
// oracle call recorded as a span. It keeps the backend's Name, so memo
// keys and result bytes are those of the plain backend.
type tracedEngine struct {
	*spicebe.Engine
	tr *tracer
}

// Eval wraps the backend's Eval and hands the backend a criterion copy
// whose LostDC spans nest under the Eval's open Lost span.
func (e tracedEngine) Eval(cond process.Condition, level regulator.VrefLevel, sopt spice.Options, crit engine.Criterion) (engine.Eval, error) {
	ev := &tracedEval{tr: e.tr, parent: e.tr.current()}
	ev.cur = ev.parent
	base := engine.PickCriterion(crit)
	if tc, ok := base.(tracedCrit); ok {
		base = tc.Criterion
	}
	inner, err := e.Engine.Eval(cond, level, sopt, tracedCrit{Criterion: base, tr: e.tr, parent: &ev.cur})
	if err != nil {
		return nil, err
	}
	ev.Eval = inner
	return ev, nil
}

// DRV1 records one static-DRV oracle call (a bisection on a memo miss).
func (e tracedEngine) DRV1(v process.Variation, cond process.Condition) float64 {
	id := e.tr.begin("engine.drv", e.tr.current())
	defer e.tr.end(id)
	return e.Engine.DRV1(v, cond)
}

// tracedEval records each Lost call — the regulator solve and, nested in
// it, the criterion decision — as a span.
type tracedEval struct {
	engine.Eval
	tr          *tracer
	parent, cur int32
}

func (e *tracedEval) Lost(d regulator.Defect, res float64, cs process.CaseStudy, dwell float64) (bool, error) {
	e.cur = e.tr.begin("engine.lost", e.parent)
	lost, err := e.Eval.Lost(d, res, cs, dwell)
	e.tr.end(e.cur)
	e.cur = e.parent
	return lost, err
}

// tracedCrit is a retention criterion with every LostDC decision — the
// FlipTime integration — recorded as a span; its Name passes through.
type tracedCrit struct {
	engine.Criterion
	tr     *tracer
	parent *int32 // the owning Eval's open span; nil = the replay's current span
}

func (c tracedCrit) LostDC(cc *engine.CellCrit, v, dwell float64) bool {
	p := c.tr.current()
	if c.parent != nil {
		p = *c.parent
	}
	id := c.tr.begin("criterion.lostdc", p)
	defer c.tr.end(id)
	return c.Criterion.LostDC(cc, v, dwell)
}

// tracedModel is faultmap's production DRV model with each calibration
// solve recorded as an engine.drv span.
type tracedModel struct{ tr *tracer }

func (m tracedModel) DRV1(v process.Variation, cond process.Condition) float64 {
	id := m.tr.begin("engine.drv", m.tr.current())
	defer m.tr.end(id)
	return faultmap.CellModel{}.DRV1(v, cond)
}

// install registers the traced backend and criterion under the names
// "spice" and "static", so the traced replay resolves them through the
// same registries sramd resolves its own from; restore re-registers the
// plain ones.
func (t *tracer) install() (restore func()) {
	engine.Register("spice", func() engine.Engine { return tracedEngine{spicebe.New(), t} })
	engine.RegisterCriterion("static", func() engine.Criterion { return tracedCrit{Criterion: engine.Static{}, tr: t} })
	return func() {
		engine.Register("spice", func() engine.Engine { return spicebe.New() })
		engine.RegisterCriterion("static", func() engine.Criterion { return engine.Static{} })
	}
}

// replayed is what one replay pass did.
type replayed struct {
	items     int
	wrong     int // items whose bytes differ from the end-to-end answers
	marchOps  int64
	faultBits int64
}

// layerMetrics maps every span name a replay records to the metric of
// its self time.
var layerMetrics = []struct{ span, metric string }{
	{"jobs", "jobs.self_s"},
	{"charac", "charac.self_s"},
	{"engine.lost", "engine.lost_self_s"},
	{"criterion.lostdc", "criterion.lostdc_s"},
	{"engine.drv", "engine.drv_s"},
	{"faultmap", "faultmap.self_s"},
	{"faultmap.calib", "faultmap.calib_s"},
	{"faultmap.gen", "faultmap.gen_s"},
	{"faultmap.apply", "faultmap.apply_s"},
	{"march.run", "march.run_s"},
	{"faultmap.merge", "faultmap.merge_s"},
	{"server", "server.self_s"},
	{"diag.decode", "diag.decode_s"},
	{"index.match", "index.match_s"},
	{"diag.load", "diag.load_s"},
	{"index.build", "index.build_s"},
}

// sramdCounters are the /metrics counters reported, as deltas over the
// end-to-end segment, beside the layer timings: program counts that
// repeat exactly for the same inputs.
var sramdCounters = []string{
	"sramd_spice_solves_total",
	"sramd_spice_newton_iters_total",
	"sramd_cache_hits_total",
	"sramd_cache_misses_total",
	"sramd_faultmap_partials_total",
	"sramd_faultmap_maps_total",
	"sramd_faultmap_fault_bits_total",
	"sramd_diag_matches_total",
	"sramd_diag_scanned_total",
	"sramd_diag_stream_requests_total",
}

// layerReport replays the end-to-end segment's inputs in-process twice
// on one sweep worker — untraced, then traced — and adds the per-layer
// metrics. itemSpan names the per-item span whose median is set against
// the end-to-end median for server.overhead_ms; it is empty where sramd
// runs an item on more sweep workers than the replay does.
func layerReport(cfg config, o *outcome, e *e2e, itemSpan string, replay func(tr *tracer) (replayed, error)) error {
	sweep.SetDefaultWorkers(1)
	defer sweep.SetDefaultWorkers(0)

	// Both replays start from a collected heap returned to the OS, so
	// neither inherits the other's heap growth.
	debug.FreeOSMemory()
	rt0 := readRuntime()
	start := time.Now()
	plain, err := replay(nil)
	if err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	plainWall := time.Since(start).Seconds()
	rt := readRuntime().sub(rt0)

	debug.FreeOSMemory()
	tr := newTracer()
	restore := tr.install()
	sp0, dg0 := spice.Stats(), diag.Stats()
	traced, err := replay(tr)
	wall := time.Since(tr.t0).Seconds()
	restore()
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	sp, dg1 := spice.Stats().Sub(sp0), diag.Stats()
	if plain.wrong+traced.wrong > 0 {
		o.mismatch("replayed bytes differ from the end-to-end answers on %d untraced and %d traced items", plain.wrong, traced.wrong)
	}

	self, calls := tr.layers()
	fmt.Fprintf(os.Stderr, "sramdbench: traced replay of %d items: %.3f s wall (untraced %.3f s); self time by layer:\n", traced.items, wall, plainWall)
	named := 0.0
	for _, l := range layerMetrics {
		o.add(l.metric, self[l.span], "s")
		named += self[l.span]
		if calls[l.span] > 0 {
			fmt.Fprintf(os.Stderr, "  %-18s %10.4f s %6.1f%% %9d calls\n", l.span, self[l.span], 100*self[l.span]/wall, calls[l.span])
		}
	}
	fmt.Fprintf(os.Stderr, "  %-18s %10.4f s %6.1f%%\n", "other", wall-named, 100*(wall-named)/wall)
	o.add("other_s", wall-named, "s")
	o.add("trace.wall_s", wall, "s")
	o.add("trace.overhead_frac", (wall-plainWall)/plainWall, "ratio")
	o.add("replay.items", float64(traced.items), "count")
	o.add("failed_ratio", float64(o.failed)/float64(o.attempted), "ratio")
	for _, n := range []string{"engine.lost", "criterion.lostdc", "engine.drv", "index.match"} {
		o.add(n+"_calls", float64(calls[n]), "count")
	}
	o.add("spice.solves", float64(sp.Solves), "count")
	o.add("spice.newton_iters", float64(sp.NewtonIters), "count")
	scanned := 0.0
	if n := dg1.Matches - dg0.Matches; n > 0 {
		scanned = float64(dg1.Scanned-dg0.Scanned) / float64(n)
	}
	o.add("index.scanned_per_query", scanned, "count")
	o.add("march.ops", float64(traced.marchOps), "count")
	o.add("faultmap.fault_bits", float64(traced.faultBits), "count")
	o.add("go.alloc_mb_per_item", rt.allocBytes/(1<<20)/float64(plain.items), "MiB")
	gcFrac := 0.0
	if rt.totalCPU > 0 {
		gcFrac = rt.gcCPU / rt.totalCPU
	}
	o.add("go.gc_cpu_frac", gcFrac, "ratio")
	overhead := 0.0
	if itemSpan != "" {
		overhead = percentile(e.lat, 0.5) - percentile(tr.durations(itemSpan), 0.5)
	}
	o.add("server.overhead_ms", overhead, "ms")
	for _, name := range sramdCounters {
		v, ok := e.counts[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "sramdbench: sramd /metrics has no %s; reported as 0\n", name)
		}
		o.add("sramd."+strings.TrimPrefix(name, "sramd_"), v, "count")
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.tsv", cfg.workload, cfg.seed))
	if err := tr.dump(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sramdbench: %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC CPU
// counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}
