// Command sramdbench is the end-to-end benchmark of the sramd daemon.
//
// Each run starts fresh sramd children with default flags (plus
// -diag-dict on the diagnose workload), times their start-up, drives the
// last one with closed-loop load, checks every answer against the
// archived results or an in-process reference, and prints one JSON
// object as the last line of standard output. With -trace 1 the timed
// window shrinks to a quarter and is followed by two in-process replays
// of the same inputs on one sweep worker, one untraced and one with
// spans around the calls into each layer; the run then reports
// per-layer metrics instead of the end-to-end ones.
//
// run.sh builds sramd and this client from the checkout and passes the
// flags through:
//
//	bash sramdbench/run.sh -workload table2 -seed 1 -seconds 30 -trace 0
//	bash sramdbench/run.sh -workload diagnose -seconds 30 -steady 10
//
// README.md lists the workloads, the metrics and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// jobSetups is how many daemons the job workloads start per run; the
// median start-up time is setup_s.
const jobSetups = 5

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sramd    string // sramd binary under test
	work     string // directory for daemon logs, dictionaries and span dumps
}

// window is the timed end-to-end window: the whole run, or a quarter of
// it when the replays follow (they run on one core and take longer than
// the window they shadow).
func (c config) window() time.Duration {
	w := time.Duration(c.seconds) * time.Second
	if c.trace {
		w /= 4
	}
	return w
}

// metric is one named number of a run.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is what one run produced.
type outcome struct {
	attempted, failed int
	wrong             []string // wrong answers and replay mismatches
	metrics           []metric
	checks            checks
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

// mismatch records a wrong answer; any makes the run incorrect.
func (o *outcome) mismatch(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(o.wrong) < 5 {
		fmt.Fprintln(os.Stderr, "sramdbench: wrong:", msg)
	}
	o.wrong = append(o.wrong, msg)
}

var workloads = map[string]func(config) (outcome, error){
	"table2":   runTable2,
	"faultmap": runFaultMap,
	"diagnose": runDiagnose,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "table2", "workload: table2, faultmap or diagnose")
	flag.Int64Var(&cfg.seed, "seed", 2013, "input seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of a run's timed window (s)")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from traced in-process replays")
	flag.StringVar(&cfg.sramd, "sramd", ".bench_build/sramd", "sramd binary under test")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "directory for daemon logs, dictionaries and span dumps")
	steady := flag.Int("steady", 0, "steadiness report: run the workload this many times (seeds 1..N) and print each end-to-end metric's quartile spread")
	bench := flag.String("bench", "BENCHMARK.json", "benchmark declaration holding the metric bounds (steadiness report)")
	flag.Parse()

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "sramdbench: want -workload table2|faultmap|diagnose, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "sramdbench:", err)
		os.Exit(1)
	}
	if *steady > 0 {
		os.Exit(steadyReport(cfg, run, *steady, *bench))
	}
	fmt.Fprintf(os.Stderr, "sramdbench: workload %s, seed %d, window %v, trace %v\n", cfg.workload, cfg.seed, cfg.window(), cfg.trace)
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sramdbench:", err)
		os.Exit(1)
	}
	if err := emit(out); err != nil {
		fmt.Fprintln(os.Stderr, "sramdbench:", err)
		os.Exit(1)
	}
}

// emit prints the metrics to stderr and, as the last line of stdout,
// the JSON result object.
func emit(o outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(o.metrics))
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			o.mismatch("metric %s is %v", m.name, m.value)
			m.value = 0
		}
		ms[m.name] = value{m.value, m.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.wrong) == 0 && o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// e2e is the end-to-end record of one run's timed window.
type e2e struct {
	setups  []float64          // sramd start-up times (s), one per start
	lat     []float64          // per-request submit-to-verified-answer latency (ms)
	items   int                // verified items (Table II cells, fault maps, signatures)
	elapsed float64            // timed window (s)
	cpu     float64            // sramd user+system CPU over the window (s)
	rssMB   float64            // sramd peak RSS at the end of the window (MiB)
	counts  map[string]float64 // sramd /metrics deltas over the window
	conns   int                // requests the client keeps outstanding
	tail    float64            // the tail quantile this workload reports
}

// measure starts sramd setups times, stopping all but the last start,
// then runs body — the timed window — against the last daemon,
// bracketed by CPU and /metrics snapshots. The daemon is stopped before
// measure returns.
func (e *e2e) measure(cfg config, setups int, extra []string, body func(d *daemon) error) error {
	var d *daemon
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return fmt.Errorf("stop sramd: %w", err)
			}
		}
		var err error
		if d, err = startDaemon(cfg, extra...); err != nil {
			return err
		}
		e.setups = append(e.setups, d.setup.Seconds())
	}
	defer func() {
		if err := d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "sramdbench: stop sramd:", err)
		}
	}()
	before, err := d.scrape()
	if err != nil {
		return err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := body(d); err != nil {
		return err
	}
	e.elapsed = time.Since(start).Seconds()
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return err
	}
	e.cpu = cpu1 - cpu0
	if e.rssMB, err = d.peakRSSMB(); err != nil {
		return err
	}
	after, err := d.scrape()
	if err != nil {
		return err
	}
	e.counts = make(map[string]float64, len(after))
	for k, v := range after {
		e.counts[k] = v - before[k]
	}
	return nil
}

// report adds the end-to-end metrics of the window and records the run's
// steadiness checks.
func (e *e2e) report(o *outcome) {
	n := float64(e.items)
	o.add("items_per_s", n/e.elapsed, "1/s")
	o.add("latency_p50_ms", percentile(e.lat, 0.50), "ms")
	o.add("latency_tail_ms", percentile(e.lat, e.tail), "ms")
	o.add("cpu_ms_per_item", e.cpu*1e3/n, "ms")
	o.add("peak_rss_mb", e.rssMB, "MiB")
	o.add("setup_s", median(e.setups), "s")
	o.checks = e.check()
	fmt.Fprintf(os.Stderr, "sramdbench: %d requests (%d failed), %d items in %.2f s; p50 has %d and p%g %d samples beyond; mean in-flight %.3f on %d connection(s)\n",
		len(e.lat), o.failed, e.items, e.elapsed, o.checks.beyondP50, 100*e.tail, o.checks.beyondTail, o.checks.inflight, e.conns)
}

// checks are the conditions under which a run's latencies are steady:
// every reported percentile has at least ten samples beyond it, and the
// latencies are service time rather than queue wait — by Little's law
// the mean number of requests in flight, total latency over the window,
// stays within the client's connections.
type checks struct {
	beyondP50, beyondTail int
	inflight              float64
	conns                 int
}

func (e *e2e) check() checks {
	total := 0.0
	for _, l := range e.lat {
		total += l
	}
	return checks{
		beyondP50:  beyond(len(e.lat), 0.50),
		beyondTail: beyond(len(e.lat), e.tail),
		inflight:   total / 1e3 / e.elapsed,
		conns:      e.conns,
	}
}

// problems lists the checks a run failed.
func (c checks) problems() []string {
	var out []string
	if c.beyondP50 < 10 || c.beyondTail < 10 {
		out = append(out, fmt.Sprintf("a reported percentile has fewer than ten samples beyond it (p50: %d, tail: %d)", c.beyondP50, c.beyondTail))
	}
	if c.inflight > float64(c.conns)*1.001 {
		out = append(out, fmt.Sprintf("mean in-flight %.3f exceeds %d connection(s): latency includes queue wait", c.inflight, c.conns))
	}
	return out
}

// steadyReport runs the workload n times on seeds 1..n, each with fresh
// daemons as the benchmark driver runs them, and prints each end-to-end
// metric's quartiles and its quartile spread against the bound
// BENCHMARK.json declares. It returns exit code 1 when a spread other
// than setup_s's reaches its bound, an answer is wrong, or a run breaks
// a steadiness check.
func steadyReport(cfg config, run func(config) (outcome, error), n int, benchPath string) int {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sramdbench:", err)
		return 1
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		fmt.Fprintf(os.Stderr, "sramdbench: %s: %v\n", benchPath, err)
		return 1
	}
	code := 0
	values := map[string][]float64{}
	for s := 1; s <= n; s++ {
		c := cfg
		c.seed, c.trace = int64(s), false
		o, err := run(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sramdbench:", err)
			return 1
		}
		if o.failed > 0 || len(o.wrong) > 0 {
			fmt.Printf("seed %d: %d of %d requests failed, %d wrong answers\n", s, o.failed, o.attempted, len(o.wrong))
			code = 1
		}
		for _, p := range o.checks.problems() {
			fmt.Printf("seed %d: %s\n", s, p)
			code = 1
		}
		for _, m := range o.metrics {
			values[m.name] = append(values[m.name], m.value)
			fmt.Fprintf(os.Stderr, "  seed %d %-18s %14.6g %s\n", s, m.name, m.value, m.unit)
		}
	}
	fmt.Printf("%s: %d runs (seeds 1..%d), %d s windows\n", cfg.workload, n, n, cfg.seconds)
	fmt.Printf("%-16s %-6s %12s %12s %12s %8s %6s  %s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, m := range decl.EndToEnd {
		q := quartiles(values[m.Name])
		spread := (q[2] - q[0]) / q[1]
		verdict := "steady: below a third of the bound"
		switch {
		case m.Name == "setup_s":
			verdict = "exempt: only its median drift is bounded"
		case !(spread < m.Bound):
			verdict = "TOO NOISY"
			code = 1
		case spread >= m.Bound/3:
			verdict = "within the bound, above a third of it"
		}
		fmt.Printf("%-16s %-6s %12.6g %12.6g %12.6g %8.4f %6.3g  %s\n", m.Name, m.Unit, q[0], q[1], q[2], spread, m.Bound, verdict)
	}
	return code
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond counts the samples ranked above the nearest-rank q-quantile of
// n samples.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// median returns the middle value of xs (the mean of the middle two for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), the spread definition the bounds in BENCHMARK.json refer to.
func quartiles(xs []float64) (q [3]float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
