package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		out, err := Map(100, func(i int) (int, error) { return i * i, nil }, Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int64
	var mu sync.Mutex
	_, err := Map(64, func(i int) (struct{}, error) {
		n := cur.Add(1)
		mu.Lock()
		if n > max.Load() {
			max.Store(n)
		}
		mu.Unlock()
		runtime.Gosched()
		cur.Add(-1)
		return struct{}{}, nil
	}, Workers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent tasks, bound is %d", m, workers)
	}
}

func TestMapLowestErrorWins(t *testing.T) {
	wantErr := errors.New("boom")
	for _, workers := range []int{1, 4} {
		out, err := Map(20, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("task %d: %w", i, wantErr)
			}
			return i, nil
		}, Workers(workers))
		if err == nil || !strings.Contains(err.Error(), "task 7") {
			t.Fatalf("workers=%d: err = %v, want the lowest-index failure", workers, err)
		}
		if !errors.Is(err, wantErr) {
			t.Errorf("error chain broken: %v", err)
		}
		// Partial results of the non-failing tasks are still delivered.
		if out[19] != 19 {
			t.Errorf("workers=%d: partial results dropped", workers)
		}
	}
}

func TestMapPanicRecovery(t *testing.T) {
	_, err := Map(10, func(i int) (int, error) {
		if i == 4 {
			panic("grid point exploded")
		}
		return i, nil
	}, Workers(4))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Task != 4 || pe.Value != "grid point exploded" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = task %d value %v stack %d bytes", pe.Task, pe.Value, len(pe.Stack))
	}
}

func TestMapContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(10, func(i int) (int, error) { return i, nil }, WithContext(ctx), Workers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapCtxCancelMidSweep(t *testing.T) {
	// Cancel after the third task: tasks already started finish, tasks
	// not yet scheduled are skipped with ctx.Err(), and the results of
	// the tasks that did run are still delivered.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	out, err := MapCtx(ctx, 100, func(i int) (int, error) {
		if ran.Add(1) == 3 {
			cancel()
		}
		return i, nil
	}, Workers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 3 {
		t.Errorf("ran %d tasks after cancel, want exactly 3 (workers=1)", n)
	}
	for i := 0; i < 3; i++ {
		if out[i] != i {
			t.Errorf("out[%d] = %d, completed results must survive cancel", i, out[i])
		}
	}
}

func TestForEachCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: nothing should run
	var ran atomic.Int64
	err := ForEachCtx(ctx, 50, func(i int) error { ran.Add(1); return nil }, Workers(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran under a dead context", ran.Load())
	}
}

func TestProgressTally(t *testing.T) {
	var p Progress
	ctx := ContextWithProgress(context.Background(), &p)
	if _, err := MapCtx(ctx, 40, func(i int) (int, error) { return i, nil }, Workers(4)); err != nil {
		t.Fatal(err)
	}
	if done, total := p.Snapshot(); done != 40 || total != 40 {
		t.Errorf("Snapshot = %d/%d, want 40/40", done, total)
	}
	// A second sweep under the same context accumulates.
	if err := ForEachCtx(ctx, 10, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if done, total := p.Snapshot(); done != 50 || total != 50 {
		t.Errorf("after second sweep: %d/%d, want 50/50", done, total)
	}
}

func TestProgressStopsShortOnCancel(t *testing.T) {
	var p Progress
	ctx, cancel := context.WithCancel(context.Background())
	ctx = ContextWithProgress(ctx, &p)
	var ran atomic.Int64
	_, _ = MapCtx(ctx, 100, func(i int) (int, error) {
		if ran.Add(1) == 5 {
			cancel()
		}
		return i, nil
	}, Workers(1))
	done, total := p.Snapshot()
	if total != 100 {
		t.Errorf("total = %d, want 100", total)
	}
	if done != 5 {
		t.Errorf("done = %d, want 5 — skipped tasks must not count as done", done)
	}
}

func TestMapWorkerState(t *testing.T) {
	var states atomic.Int64
	const workers = 4
	out, err := MapWorker(32,
		func() *int { states.Add(1); v := 0; return &v },
		func(s *int, i int) (int, error) { *s++; return *s, nil },
		Workers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if n := states.Load(); n > workers {
		t.Errorf("%d states created for %d workers", n, workers)
	}
	// Every worker counts its own tasks; the totals must add up to n.
	perWorkerMax := map[int]bool{}
	total := 0
	for _, v := range out {
		if !perWorkerMax[v] {
			perWorkerMax[v] = true
			total++ // each distinct counter value appears at least once
		}
	}
	if total == 0 {
		t.Error("no tasks ran")
	}
}

func TestForEach(t *testing.T) {
	var n atomic.Int64
	if err := ForEach(25, func(i int) error { n.Add(1); return nil }, Workers(5)); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 25 {
		t.Errorf("ran %d tasks, want 25", n.Load())
	}
}

func TestMapZeroTasks(t *testing.T) {
	out, err := Map(0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestDefaultWorkersResolution(t *testing.T) {
	defer SetDefaultWorkers(0)

	SetDefaultWorkers(0)
	t.Setenv(EnvWorkers, "")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("DefaultWorkers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}

	t.Setenv(EnvWorkers, "7")
	if got := DefaultWorkers(); got != 7 {
		t.Errorf("env override: DefaultWorkers() = %d, want 7", got)
	}
	t.Setenv(EnvWorkers, "not-a-number")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("bad env ignored: DefaultWorkers() = %d", got)
	}

	SetDefaultWorkers(3)
	t.Setenv(EnvWorkers, "7")
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("SetDefaultWorkers must win over the env: got %d", got)
	}
}

func TestCacheSingleflight(t *testing.T) {
	var c Cache[string, int]
	var computes atomic.Int64
	_, err := Map(50, func(i int) (int, error) {
		return c.Do("key", func() (int, error) {
			computes.Add(1)
			return 42, nil
		})
	}, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want exactly once", n)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
	v, err := c.Do("key", func() (int, error) { t.Error("recompute on hit"); return 0, nil })
	if v != 42 || err != nil {
		t.Errorf("hit returned %d, %v", v, err)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	var c Cache[int, int]
	wantErr := errors.New("bad point")
	var computes int
	for k := 0; k < 3; k++ {
		_, err := c.Do(1, func() (int, error) { computes++; return 0, wantErr })
		if !errors.Is(err, wantErr) {
			t.Fatalf("err = %v", err)
		}
	}
	if computes != 1 {
		t.Errorf("failing compute ran %d times, want 1", computes)
	}
}

func TestCachePanicAndReset(t *testing.T) {
	var c Cache[int, int]
	_, err := c.Do(9, func() (int, error) { panic("compute blew up") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Errorf("Len after Reset = %d", c.Len())
	}
	v, err := c.Do(9, func() (int, error) { return 5, nil })
	if v != 5 || err != nil {
		t.Errorf("post-reset compute: %d, %v", v, err)
	}
}

func TestCacheBoundedEvictsOldest(t *testing.T) {
	c := Cache[int, int]{Max: 3}
	computes := map[int]int{}
	get := func(k int) int {
		v, _ := c.Do(k, func() (int, error) { computes[k]++; return k * k, nil })
		return v
	}
	for k := 0; k < 5; k++ {
		get(k)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want the cap 3", c.Len())
	}
	get(4) // still held
	get(0) // evicted: recomputed, and evicts key 2
	if computes[4] != 1 || computes[0] != 2 {
		t.Errorf("computes = %v, want key 4 once and the evicted key 0 twice", computes)
	}
	if v := get(0); v != 0 || computes[0] != 2 {
		t.Errorf("re-inserted key: %d after %d computes", v, computes[0])
	}
	get(2)
	if computes[2] != 2 || c.Len() != 3 {
		t.Errorf("key 2 computed %d times, Len %d; want 2 and 3", computes[2], c.Len())
	}
}

// TestCacheBoundedConcurrent: workers hammering a small bounded cache
// over more keys than it holds always get their key's value, and the
// table never outgrows its cap.
func TestCacheBoundedConcurrent(t *testing.T) {
	c := Cache[int, int]{Max: 4}
	_, err := Map(400, func(i int) (int, error) {
		k := i % 13
		v, err := c.Do(k, func() (int, error) { return k * 7, nil })
		if err == nil && v != k*7 {
			err = fmt.Errorf("key %d: got %d, want %d", k, v, k*7)
		}
		return v, err
	}, Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n > 4 {
		t.Errorf("Len = %d exceeds the cap 4", n)
	}
}
