package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestWriterExposition pins the text format: HELP/TYPE lines, %d for
// integers, %g for floats, quoted labels, cumulative histogram buckets.
func TestWriterExposition(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Counter("c_total", "A counter.", 3)
	w.Gauge("g", "A gauge.", 0.25)
	w.Family("v", "Labelled.", "gauge")
	w.Sample("v", 2, "node", "http://a:1")
	h := NewHistogram(0.5, 5)
	for _, v := range []float64{0.25, 0.5, 3, 9} {
		h.Observe(v)
	}
	w.Histogram("h_seconds", "A histogram.", h.Snapshot())
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 3
# HELP g A gauge.
# TYPE g gauge
g 0.25
# HELP v Labelled.
# TYPE v gauge
v{node="http://a:1"} 2
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
h_seconds_bucket{le="0.5"} 2
h_seconds_bucket{le="5"} 3
h_seconds_bucket{le="+Inf"} 4
h_seconds_sum 12.75
h_seconds_count 4
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestRegisteredConcurrent counts into registered metrics from several
// goroutines while another renders them; the final scrape sees every
// increment.
func TestRegisteredConcurrent(t *testing.T) {
	c := NewCounter("test_events_total", "Events.")
	vec := NewCounterVec("test_outcomes_total", "Outcomes.", "outcome", "ok", "bad")
	ok, bad := vec.With("ok"), vec.With("bad")
	g := NewGauge("test_last", "Last value.")
	GaugeFunc("test_ratio", "Derived.", func() float64 { return float64(ok.Load()) / 2 })

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
				ok.Add(1)
				bad.Add(2)
				g.Set(float64(j))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var b strings.Builder
			NewWriter(&b).Registered()
		}
	}()
	wg.Wait()

	var b strings.Builder
	NewWriter(&b).Registered()
	for _, want := range []string{
		"# TYPE test_events_total counter\ntest_events_total 4000\n",
		"test_outcomes_total{outcome=\"ok\"} 4000\ntest_outcomes_total{outcome=\"bad\"} 8000\n",
		"# TYPE test_last gauge\ntest_last 999\n",
		"test_ratio 2000\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("registered exposition lacks %q:\n%s", want, b.String())
		}
	}
}

func TestWithUndeclaredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("With on an undeclared label value did not panic")
		}
	}()
	NewCounterVec("test_undeclared_total", "Undeclared.", "kind", "a").With("b")
}
