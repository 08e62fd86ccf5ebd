package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"sramtest/internal/metrics"
	"sramtest/internal/store"
	"sramtest/internal/sweep"
)

// State is a job's lifecycle phase.
type State string

// Job states. queued → running → {done, failed, canceled}; a cache hit
// is born done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Submission-time errors.
var (
	// ErrQueueFull means the bounded queue rejected the job (HTTP 503).
	ErrQueueFull = errors.New("job queue full")
	// ErrShuttingDown means the manager no longer accepts jobs.
	ErrShuttingDown = errors.New("manager shutting down")
	// ErrNotFound means no job record has the requested ID.
	ErrNotFound = errors.New("job not found")
)

// transientError marks an error the manager may retry.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Transient wraps err so the manager retries the job with backoff (up to
// Config.MaxRetries extra attempts). The sweep products themselves are
// deterministic and never transiently fail; the marker exists for
// runners with genuinely retryable dependencies (and for tests).
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// RunFunc executes a normalized spec and returns the result bytes.
type RunFunc func(ctx context.Context, spec Spec) ([]byte, error)

// Config tunes a Manager. The zero value is usable: one executor, a
// 16-deep queue, no timeout, two retries, no store.
type Config struct {
	// Workers is the number of concurrent job executors (not sweep
	// workers — each running job parallelizes internally on the sweep
	// engine). Default 1.
	Workers int
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it fail with ErrQueueFull. Default 16.
	QueueDepth int
	// JobTimeout caps one attempt's wall-clock time; 0 = unlimited.
	JobTimeout time.Duration
	// MaxRetries is the number of extra attempts after a transient
	// failure. Default 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the first retry's delay, doubling per attempt.
	// Default 100 ms.
	RetryBackoff time.Duration
	// Store, when non-nil, caches results content-addressed by the
	// canonical spec: submissions whose key is stored complete
	// immediately, and successful runs are written back.
	Store *store.Store
	// Run executes jobs; nil = Run (the CLI-identical runners).
	Run RunFunc
}

// job is the manager's internal record.
type job struct {
	id       string
	spec     Spec   // normalized
	canon    []byte // canonical serialization (the store's Spec field)
	key      string
	state    State
	cached   bool
	attempts int
	result   []byte
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	progress *sweep.Progress
	cancel   context.CancelFunc
	canceled bool          // Cancel was requested (distinguishes cancel from timeout)
	done     chan struct{} // closed when the job reaches a terminal state
}

// Status is the externally visible snapshot of a job.
type Status struct {
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`
	// Key is the content address of the job's canonical spec — the same
	// key the result store and the cluster coordinator shard by.
	Key      string    `json:"key,omitempty"`
	State    State     `json:"state"`
	Cached   bool      `json:"cached,omitempty"`
	Done     int64     `json:"tasksDone"`
	Total    int64     `json:"tasksTotal"`
	Attempts int       `json:"attempts"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// Stats is a point-in-time aggregate for the metrics endpoint.
type Stats struct {
	Queued, Running, Done, Failed, Canceled int64
	CacheHits, CacheMisses                  int64
	TasksDone, TasksTotal                   int64 // sweep tasks across all jobs
	Duration                                metrics.HistogramSnapshot
}

// Manager owns the job records and the execution pool.
type Manager struct {
	cfg   Config
	run   RunFunc
	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for List
	queue chan *job
	wg    sync.WaitGroup
	open  bool
	seq   int64

	cacheHits, cacheMisses int64
	duration               *metrics.Histogram // job execution seconds
}

// NewManager starts a manager with cfg's executors running.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	run := cfg.Run
	if run == nil {
		run = Run
	}
	m := &Manager{
		cfg:   cfg,
		run:   run,
		jobs:  map[string]*job{},
		queue: make(chan *job, cfg.QueueDepth),
		open:  true,
		// Job-latency bucket bounds in seconds, exposed at /metrics.
		duration: metrics.NewHistogram(0.01, 0.05, 0.25, 1, 5, 15, 60, 300, 1800),
	}
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates, dedupes against the store, and enqueues a job.
// A store hit returns a job already in StateDone with Cached set.
func (m *Manager) Submit(spec Spec) (Status, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return Status{}, err
	}
	canon, err := json.Marshal(norm)
	if err != nil {
		return Status{}, err
	}
	key := store.Key(canon)

	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.open {
		return Status{}, ErrShuttingDown
	}
	m.seq++
	j := &job{
		id:       fmt.Sprintf("j%06d", m.seq),
		spec:     norm,
		canon:    canon,
		key:      key,
		state:    StateQueued,
		created:  time.Now().UTC(),
		progress: &sweep.Progress{},
		done:     make(chan struct{}),
	}

	if m.cfg.Store != nil {
		if res, ok := m.cfg.Store.Get(key); ok {
			m.cacheHits++
			now := time.Now().UTC()
			j.state = StateDone
			j.cached = true
			j.result = res
			j.started, j.finished = now, now
			close(j.done) // born terminal
			m.jobs[j.id] = j
			m.order = append(m.order, j.id)
			return j.status(), nil
		}
		m.cacheMisses++
	}

	select {
	case m.queue <- j:
	default:
		return Status{}, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	return j.status(), nil
}

// Get returns a job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// List returns every job record in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].status())
	}
	return out
}

// Result returns the result bytes of a finished job alongside its
// status; ok is false until the job reaches StateDone.
func (m *Manager) Result(id string) (result []byte, st Status, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, Status{}, ErrNotFound
	}
	return j.result, j.status(), nil
}

// Wait blocks until the job reaches a terminal state (done, failed or
// canceled) or ctx expires, and returns the final status. It is
// event-driven — no polling — which is what the batch endpoints lean on
// to stream results the moment they land.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Status{}, ErrNotFound
	}
	done := j.done
	m.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
	// j stays valid even if the record was forgotten while waiting.
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.status(), nil
}

// Load reports the queue pressure: jobs waiting and jobs executing.
// It backs the /v1/load endpoint the cluster coordinator and external
// monitors read.
func (m *Manager) Load() (queued, running int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		switch j.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return queued, running
}

// Cancel stops a queued or running job (its state becomes canceled) and
// forgets a finished one (the record is removed; cached store entries
// survive). The returned status is the record's last observed state.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		j.canceled = true
		j.state = StateCanceled
		j.finished = time.Now().UTC()
		close(j.done)
	case StateRunning:
		j.canceled = true
		if j.cancel != nil {
			j.cancel() // worker observes ctx and finishes the record
		}
	default: // finished: forget the record
		st := j.status()
		delete(m.jobs, id)
		for i, oid := range m.order {
			if oid == id {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		return st, nil
	}
	return j.status(), nil
}

// Drain stops intake and waits for in-flight jobs. If ctx expires first,
// running jobs are canceled and Drain waits for them to wind down.
func (m *Manager) Drain(ctx context.Context) {
	m.mu.Lock()
	if m.open {
		m.open = false
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return
	case <-ctx.Done():
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.canceled = true
			j.cancel()
		}
	}
	m.mu.Unlock()
	<-done
}

// Stats aggregates the manager's counters for the metrics endpoint.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		CacheHits:   m.cacheHits,
		CacheMisses: m.cacheMisses,
		Duration:    m.duration.Snapshot(),
	}
	for _, j := range m.jobs {
		done, total := j.progress.Snapshot()
		s.TasksDone += done
		s.TasksTotal += total
		switch j.state {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCanceled:
			s.Canceled++
		}
	}
	return s
}

// worker drains the queue until Drain closes it.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob executes one job with timeout, retries and panic isolation.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if j.state != StateQueued { // canceled while waiting
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now().UTC()
	base, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	m.mu.Unlock()
	defer cancel()

	ctx := sweep.ContextWithProgress(base, j.progress)
	if m.cfg.JobTimeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, m.cfg.JobTimeout)
		defer tcancel()
	}

	var result []byte
	var err error
	backoff := m.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		m.mu.Lock()
		j.attempts = attempt + 1
		m.mu.Unlock()
		result, err = m.runProtected(ctx, j.spec)
		if err == nil || ctx.Err() != nil || !IsTransient(err) || attempt >= m.cfg.MaxRetries {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
		backoff *= 2
	}

	if err == nil && m.cfg.Store != nil {
		// A persistence failure degrades to memory-only; the job result
		// is unaffected.
		_ = m.cfg.Store.Put(j.key, j.canon, result)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	defer close(j.done)
	j.finished = time.Now().UTC()
	m.duration.Observe(j.finished.Sub(j.started).Seconds())
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
	case j.canceled || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.errMsg = "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("timed out after %s", m.cfg.JobTimeout)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
}

// runProtected isolates runner panics as errors so a bad job can never
// take down the daemon's executor pool.
func (m *Manager) runProtected(ctx context.Context, spec Spec) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return m.run(ctx, spec)
}

// status snapshots a job. Callers hold m.mu.
func (j *job) status() Status {
	done, total := j.progress.Snapshot()
	return Status{
		ID:       j.id,
		Kind:     j.spec.Kind,
		Key:      j.key,
		State:    j.state,
		Cached:   j.cached,
		Done:     done,
		Total:    total,
		Attempts: j.attempts,
		Error:    j.errMsg,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
}
