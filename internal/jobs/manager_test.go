package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sramtest/internal/store"
)

// specN builds a distinct (but cheap) valid spec per n, so fake-runner
// tests exercise distinct cache keys.
func specN(n int) Spec {
	return Spec{Kind: KindExp, Exp: &ExpSpec{Samples: n + 1}}
}

func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
	return Status{}
}

func TestManagerRunsJobsAndStoresResults(t *testing.T) {
	st, err := store.Open("", 16)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{
		Workers: 2,
		Store:   st,
		Run: func(ctx context.Context, spec Spec) ([]byte, error) {
			return []byte(fmt.Sprintf("result-%d", spec.Exp.Samples)), nil
		},
	})
	defer m.Drain(context.Background())

	s1, err := m.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, s1.ID, StateDone)
	if done.Cached {
		t.Error("first run must not be a cache hit")
	}
	res, _, err := m.Result(s1.ID)
	if err != nil || string(res) != "result-1" {
		t.Fatalf("Result = %q, %v", res, err)
	}

	// Byte-identical re-submission: a cache hit, born done.
	s2, err := m.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	if s2.State != StateDone || !s2.Cached {
		t.Fatalf("resubmission: state=%s cached=%v, want immediate cached done", s2.State, s2.Cached)
	}
	res2, _, err := m.Result(s2.ID)
	if err != nil || string(res2) != "result-1" {
		t.Fatalf("cached Result = %q, %v", res2, err)
	}
	st2 := m.Stats()
	if st2.CacheHits != 1 || st2.CacheMisses != 1 {
		t.Errorf("cache stats = %d/%d hits/misses, want 1/1", st2.CacheHits, st2.CacheMisses)
	}
}

func TestManagerQueueBound(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	m := NewManager(Config{
		Workers:    1,
		QueueDepth: 2,
		Run: func(ctx context.Context, spec Spec) ([]byte, error) {
			started <- struct{}{}
			<-release
			return []byte("ok"), nil
		},
	})
	defer func() { close(release); m.Drain(context.Background()) }()

	// Occupy the single executor, then fill the 2-deep queue; the next
	// submission must bounce.
	if _, err := m.Submit(specN(0)); err != nil {
		t.Fatal(err)
	}
	<-started
	accepted := 0
	var lastErr error
	for i := 1; i < 4; i++ {
		_, err := m.Submit(specN(i))
		if err != nil {
			lastErr = err
			continue
		}
		accepted++
	}
	if !errors.Is(lastErr, ErrQueueFull) {
		t.Fatalf("overflow error = %v, want ErrQueueFull", lastErr)
	}
	if accepted != 2 {
		t.Errorf("accepted %d queued jobs, want 2", accepted)
	}
}

func TestManagerRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(Config{
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		Run: func(ctx context.Context, spec Spec) ([]byte, error) {
			if calls.Add(1) < 3 {
				return nil, Transient(errors.New("flaky backend"))
			}
			return []byte("eventually"), nil
		},
	})
	defer m.Drain(context.Background())

	s, err := m.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, s.ID, StateDone)
	if done.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", done.Attempts)
	}
	if calls.Load() != 3 {
		t.Errorf("runner ran %d times, want 3", calls.Load())
	}
}

func TestManagerDoesNotRetryPermanentFailures(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(Config{
		MaxRetries:   3,
		RetryBackoff: time.Millisecond,
		Run: func(ctx context.Context, spec Spec) ([]byte, error) {
			calls.Add(1)
			return nil, errors.New("deterministic failure")
		},
	})
	defer m.Drain(context.Background())

	s, err := m.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, s.ID, StateFailed)
	if !strings.Contains(failed.Error, "deterministic failure") {
		t.Errorf("error = %q", failed.Error)
	}
	if calls.Load() != 1 {
		t.Errorf("permanent failure ran %d times, want 1", calls.Load())
	}
}

func TestManagerIsolatesPanics(t *testing.T) {
	m := NewManager(Config{
		Workers: 1,
		Run: func(ctx context.Context, spec Spec) ([]byte, error) {
			if spec.Exp.Samples == 1 {
				panic("runner exploded")
			}
			return []byte("survived"), nil
		},
	})
	defer m.Drain(context.Background())

	bad, err := m.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, bad.ID, StateFailed)
	if !strings.Contains(failed.Error, "runner exploded") {
		t.Errorf("panic not captured: %q", failed.Error)
	}

	// The executor pool survives and runs the next job.
	good, err := m.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, good.ID, StateDone)
}

func TestManagerCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	m := NewManager(Config{
		JobTimeout: time.Minute,
		Run: func(ctx context.Context, spec Spec) ([]byte, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	defer m.Drain(context.Background())

	s, err := m.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(s.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, s.ID, StateCanceled)
}

func TestManagerJobTimeout(t *testing.T) {
	m := NewManager(Config{
		JobTimeout: 5 * time.Millisecond,
		Run: func(ctx context.Context, spec Spec) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	defer m.Drain(context.Background())

	s, err := m.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, m, s.ID, StateFailed)
	if !strings.Contains(failed.Error, "timed out") {
		t.Errorf("error = %q, want a timeout", failed.Error)
	}
}

func TestManagerCancelQueuedAndForgetFinished(t *testing.T) {
	release := make(chan struct{})
	m := NewManager(Config{
		Workers: 1,
		Run: func(ctx context.Context, spec Spec) ([]byte, error) {
			<-release
			return []byte("ok"), nil
		},
	})
	defer m.Drain(context.Background())

	running, err := m.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(specN(1))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := m.Cancel(queued.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: %v, %v", st, err)
	}
	close(release)
	waitState(t, m, running.ID, StateDone)

	// Deleting a finished job forgets the record.
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(running.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("forgotten job still resolvable: %v", err)
	}
	if _, err := m.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id: %v", err)
	}
}

// TestManagerConcurrentSubmitPollCancel hammers the manager from many
// goroutines; run under -race it is the data-race gate for the jobs
// subsystem.
func TestManagerConcurrentSubmitPollCancel(t *testing.T) {
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{
		Workers:    4,
		QueueDepth: 256,
		Store:      st,
		Run: func(ctx context.Context, spec Spec) ([]byte, error) {
			time.Sleep(time.Duration(spec.Exp.Samples%3) * time.Millisecond)
			return []byte(fmt.Sprintf("r%d", spec.Exp.Samples)), nil
		},
	})

	const loops = 40
	var wg sync.WaitGroup
	ids := make(chan string, loops*4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				s, err := m.Submit(specN(g*loops + i))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- s.ID
				m.Get(s.ID)
				m.Stats()
				if i%7 == 0 {
					m.Cancel(s.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	close(ids)

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m.Drain(drainCtx)

	for id := range ids {
		st, err := m.Get(id)
		if errors.Is(err, ErrNotFound) {
			continue // canceled-finished records may have been forgotten
		}
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone, StateCanceled, StateFailed:
		default:
			t.Errorf("job %s left in state %q after drain", id, st.State)
		}
	}
	if _, err := m.Submit(specN(0)); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after drain: %v, want ErrShuttingDown", err)
	}
}

func TestStatsHistogramCounts(t *testing.T) {
	m := NewManager(Config{
		Run: func(ctx context.Context, spec Spec) ([]byte, error) { return []byte("x"), nil },
	})
	defer m.Drain(context.Background())
	s, err := m.Submit(specN(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, s.ID, StateDone)
	st := m.Stats()
	if st.Duration.Count != 1 {
		t.Errorf("Duration.Count = %d, want 1", st.Duration.Count)
	}
	var total int64
	for _, c := range st.Duration.Counts {
		total += c
	}
	if total != 1 {
		t.Errorf("histogram bucket sum = %d, want 1", total)
	}
	if len(st.Duration.Counts) != len(st.Duration.Bounds)+1 {
		t.Errorf("bucket arity mismatch: %d counts for %d bounds", len(st.Duration.Counts), len(st.Duration.Bounds))
	}
}
