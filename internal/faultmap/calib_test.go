package faultmap

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sramtest/internal/engine"
	"sramtest/internal/march"
	"sramtest/internal/process"
	"sramtest/internal/sweep"
)

// mustCalibrate fits model at the test condition, rail 0.50 V and
// seed 7 on the given sweep worker count.
func mustCalibrate(t *testing.T, model Model, workers int) Calib {
	t.Helper()
	cal, err := calibrate(context.Background(), model, testCond, 0.50, 7, workers)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// orderModel answers the calibration samples from a table: sample 0 is
// huge (1.5·2^53, whose half-ulp is 1) and the other 47 span 2^-16..1,
// so summed in sample order every later sample rounds away, while any
// order that puts some of them first changes the bits of Mu. The huge
// sample's call sleeps long enough for parallel workers to finish the
// others first; done records the values in completion order.
type orderModel struct {
	vals map[process.Variation]float64
	mu   sync.Mutex
	done []float64
}

func newOrderModel() (*orderModel, []float64) {
	rng := rand.New(rand.NewSource(sweep.ChunkSeed(7, calibChunk)))
	m := &orderModel{vals: map[process.Variation]float64{}}
	drvs := make([]float64, CalSamples)
	for i := range drvs {
		drvs[i] = math.Ldexp(1+rng.Float64(), -1-i%16)
		if i == 0 {
			drvs[i] = 1.5 * (1 << 53)
		}
	}
	cal := rand.New(rand.NewSource(sweep.ChunkSeed(7, calibChunk)))
	for _, d := range drvs {
		m.vals[process.RandomVariation(cal)] = d
	}
	return m, drvs
}

func (m *orderModel) DRV1(v process.Variation, _ process.Condition) float64 {
	d := m.vals[v]
	if d > 1 {
		time.Sleep(20 * time.Millisecond)
	}
	m.mu.Lock()
	m.done = append(m.done, d)
	m.mu.Unlock()
	return d
}

// moments returns the Calib fit of drvs summed in slice order.
func moments(drvs []float64) (mu, sigma float64) {
	var sum, sum2 float64
	for _, d := range drvs {
		sum += d
		sum2 += d * d
	}
	n := float64(len(drvs))
	mu = sum / n
	return mu, math.Sqrt(math.Max((sum2-n*mu*mu)/(n-1), 0))
}

// TestCalibrationParallelSum: the calibration solves run on the sweep
// workers and finish in any order, yet the fit is summed in sample
// order — bit-equal at every worker count and to a plain sequential
// loop over the calibration stream.
func TestCalibrationParallelSum(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		m, drvs := newOrderModel()
		mu, sigma := moments(drvs)
		cal := mustCalibrate(t, m, workers)
		if len(m.done) != CalSamples {
			t.Fatalf("workers=%d: %d model calls, want %d", workers, len(m.done), CalSamples)
		}
		if cal.Mu != mu || cal.Sigma != sigma {
			t.Errorf("workers=%d: Mu, Sigma = %v, %v, want the sequential %v, %v", workers, cal.Mu, cal.Sigma, mu, sigma)
		}
		if workers == 1 {
			continue
		}
		if cmu, csigma := moments(m.done); cmu == mu && csigma == sigma {
			t.Errorf("workers=%d: summing in completion order gives the same fit — the run did not exercise a reordering", workers)
		}
	}
}

// cancelModel is the production model that cancels its context once n
// calibration solves have finished.
type cancelModel struct {
	mu     sync.Mutex
	n      int
	cancel context.CancelFunc
}

func (m *cancelModel) DRV1(v process.Variation, cond process.Condition) float64 {
	d := CellModel{}.DRV1(v, cond)
	m.mu.Lock()
	if m.n--; m.n == 0 {
		m.cancel()
	}
	m.mu.Unlock()
	return d
}

// TestShardPartialCanceled: a canceled job stops its calibration and
// returns the context error, and a later run of the same corpus
// through the shared DRV memo returns the bytes of a run that was
// never interrupted — the memo keeps only finished solves.
func TestShardPartialCanceled(t *testing.T) {
	p := Params{
		Maps:    MapChunk,
		Cond:    testCond,
		Tests:   []march.Test{march.MarchCMinus()},
		Workers: 2,
		Shards:  2,
	}
	run := func(ctx context.Context, model Model) ([]byte, error) {
		p.Model = model
		part, err := ShardPartial(ctx, p)
		if err != nil {
			return nil, err
		}
		return json.Marshal(part)
	}

	engine.ResetDRVCache()
	t.Cleanup(engine.ResetDRVCache)
	want, err := run(context.Background(), CellModel{})
	if err != nil {
		t.Fatal(err)
	}

	engine.ResetDRVCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := run(ctx, CellModel{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run: err = %v, want context.Canceled", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	if _, err := run(ctx, &cancelModel{n: 5, cancel: cancel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("run canceled mid-calibration: err = %v, want context.Canceled", err)
	}
	if n := engine.DRVCacheLen(); n < 5 || n >= CalSamples {
		t.Errorf("memo holds %d thresholds after the canceled calibration, want [5, %d)", n, CalSamples)
	}

	got, err := run(context.Background(), CellModel{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("partial after a canceled calibration differs from an uninterrupted run:\n got %s\nwant %s", got, want)
	}
}
