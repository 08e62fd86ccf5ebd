package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"sramtest/internal/jobs"
	"sramtest/internal/store"
)

// Config tunes a Coordinator. Nodes is required; everything else has a
// usable default.
type Config struct {
	// Nodes are the base URLs of the sramd nodes (e.g.
	// "http://10.0.0.1:8347"). Order is irrelevant to sharding — the
	// ring hashes the URLs — but must be the same fleet on every
	// coordinator for their shard maps to agree.
	Nodes []string
	// VNodes is the virtual-node count per node on the hash ring.
	VNodes int
	// StealThreshold is the owner-shard depth (jobs this coordinator has
	// in flight on the node) above which a submission is rerouted to the
	// least-loaded healthy node. Default 8.
	StealThreshold int
	// MaxInflight bounds concurrently executing specs per batch request;
	// intake beyond it waits, which is the batch backpressure. Default 32.
	MaxInflight int
	// PollInterval paces remote job status polls. Default 25ms.
	PollInterval time.Duration
	// RetryCooldown is how long a node that failed a request is skipped
	// before being retried. Default 3s.
	RetryCooldown time.Duration
	// Client issues all node requests; default has no global timeout
	// (jobs are long) — per-request contexts bound the waits.
	Client *http.Client
	// Store, when non-nil, is the coordinator's replica of the
	// content-addressed result store: every result streamed through the
	// coordinator is written back, and future submissions of the same
	// canonical spec are answered without touching a node.
	Store *store.Store
}

// Stats is a point-in-time snapshot of the coordinator's counters.
type Stats struct {
	Nodes, Healthy int
	// Routed counts routing decisions; Stolen the ones rerouted off a
	// hot owner; Failovers the node failures survived by retrying.
	Routed, Stolen, Failovers int64
	// ReplicaReads counts results served from a surviving node's store
	// after an owner died; CacheHits the ones served from the
	// coordinator's own replica store.
	ReplicaReads, CacheHits int64
	Batches, BatchJobs      int64
	BatchErrors             int64
	ProxiedJobs             int64
	// DiagBatches/DiagLines/DiagErrors count the streaming-diagnosis
	// fan-out: requests, signature lines received, lines ended failed.
	DiagBatches, DiagLines int64
	DiagErrors             int64
}

// Coordinator fronts a fleet of sramd nodes with the same HTTP API a
// single node serves, plus the fan-out batch endpoint:
//
//	POST   /v1/batch            NDJSON specs in, streamed results out
//	POST   /v1/diagnose         NDJSON signatures fanned out over the fleet
//	GET    /v1/diagnose         dictionary info proxied from a live node
//	POST   /v1/jobs             route one spec to its owner node
//	GET    /v1/jobs             list proxied job records
//	GET    /v1/jobs/{id}        proxy status from the owning node
//	GET    /v1/jobs/{id}/result proxy result bytes
//	DELETE /v1/jobs/{id}        proxy cancel/forget
//	GET    /v1/cluster          live topology (per-node load and health)
//	GET    /healthz             liveness probe
//	GET    /metrics             Prometheus-text cluster counters
type Coordinator struct {
	cfg    Config
	ring   *Ring
	client *http.Client
	mux    *http.ServeMux

	mu    sync.Mutex
	nodes []*nodeState
	jobs  map[string]*remoteJob
	seq   int64
	stats Stats
}

// nodeState is the coordinator's view of one node. inflight counts the
// specs this coordinator currently has running there — the depth signal
// for work stealing (cheap, local, and exact for coordinator-originated
// traffic; /v1/load exists for external observability).
type nodeState struct {
	base      string
	inflight  int64
	downUntil time.Time
}

// remoteJob maps a coordinator job ID onto the node that owns it. A
// coordinator-store cache hit keeps the result locally instead.
type remoteJob struct {
	node     string
	remoteID string
	kind     jobs.Kind
	key      string
	canon    []byte
	result   []byte // non-nil only for coordinator-cache hits
	created  time.Time
}

// New validates cfg and builds the coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	bases := make([]string, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		b := strings.TrimRight(strings.TrimSpace(n), "/")
		if !strings.HasPrefix(b, "http://") && !strings.HasPrefix(b, "https://") {
			return nil, fmt.Errorf("cluster: node %q is not an http(s) base URL", n)
		}
		bases[i] = b
	}
	if cfg.StealThreshold <= 0 {
		cfg.StealThreshold = 8
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 32
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 25 * time.Millisecond
	}
	if cfg.RetryCooldown <= 0 {
		cfg.RetryCooldown = 3 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   NewRing(bases, cfg.VNodes),
		client: client,
		mux:    http.NewServeMux(),
		jobs:   map[string]*remoteJob{},
	}
	c.nodes = make([]*nodeState, len(bases))
	for i, b := range bases {
		c.nodes[i] = &nodeState{base: b}
	}
	c.mux.HandleFunc("POST /v1/batch", c.handleBatch)
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs", c.handleList)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	c.mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleResult)
	c.mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleDelete)
	c.mux.HandleFunc("POST /v1/diagnose", c.handleDiagnose)
	c.mux.HandleFunc("GET /v1/diagnose", c.handleDiagnoseInfo)
	c.mux.HandleFunc("GET /v1/cluster", c.handleTopology)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	return c, nil
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Nodes = len(c.nodes)
	for _, ns := range c.nodes {
		if !now.Before(ns.downUntil) {
			s.Healthy++
		}
	}
	return s
}

// ---- routing ----

// nodeError marks a failure of the node rather than the job: transport
// errors and 5xx responses (down=true, the node enters cooldown) or a
// full queue (down=false, just try the next candidate). Job-level
// failures are plain errors and never fail over — a deterministic job
// fails identically everywhere.
type nodeError struct {
	err  error
	down bool
}

func (e *nodeError) Error() string { return e.err.Error() }
func (e *nodeError) Unwrap() error { return e.err }

// plan returns the candidate nodes for key in attempt order: the ring
// sequence with down nodes pushed to the back, and — when the owner
// shard is deeper than StealThreshold — the least-loaded healthy node
// promoted to the front (work stealing).
func (c *Coordinator) plan(key string) []*nodeState {
	seq := c.ring.Sequence(key)
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	healthy := make([]*nodeState, 0, len(seq))
	var down []*nodeState
	for _, i := range seq {
		ns := c.nodes[i]
		if now.Before(ns.downUntil) {
			down = append(down, ns)
		} else {
			healthy = append(healthy, ns)
		}
	}
	c.stats.Routed++
	if len(healthy) == 0 {
		return down // last resort: the cooldowns may be stale
	}
	owner := healthy[0]
	if int(owner.inflight) > c.cfg.StealThreshold {
		min := owner
		for _, ns := range healthy[1:] {
			if ns.inflight < min.inflight {
				min = ns
			}
		}
		if min != owner {
			c.stats.Stolen++
			reordered := make([]*nodeState, 0, len(healthy))
			reordered = append(reordered, min)
			for _, ns := range healthy {
				if ns != min {
					reordered = append(reordered, ns)
				}
			}
			healthy = reordered
		}
	}
	return append(healthy, down...)
}

func (c *Coordinator) markDown(ns *nodeState) {
	c.mu.Lock()
	ns.downUntil = time.Now().Add(c.cfg.RetryCooldown)
	c.stats.Failovers++
	c.mu.Unlock()
}

func (c *Coordinator) addInflight(ns *nodeState, d int64) {
	c.mu.Lock()
	ns.inflight += d
	c.mu.Unlock()
}

// prepare normalizes spec and returns its canonical bytes — also the
// body forwarded to nodes, which normalize it to the same bytes and so
// compute the same store key — and that key.
func (c *Coordinator) prepare(spec jobs.Spec) (canon []byte, key string, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, "", err
	}
	if canon, err = json.Marshal(norm); err != nil {
		return nil, "", err
	}
	return canon, store.Key(canon), nil
}

// specOutcome is a completed spec: its key, result bytes, and where
// they came from.
type specOutcome struct {
	key    string
	node   string
	cached bool
	result []byte
}

// runSpec drives one spec to completion: replica-store check, routing
// with work stealing, submission, polling, and failover across
// surviving nodes when a node dies mid-job. Full queues everywhere park
// the caller (backpressure) rather than failing the spec.
func (c *Coordinator) runSpec(ctx context.Context, spec jobs.Spec) (specOutcome, error) {
	canon, key, err := c.prepare(spec)
	if err != nil {
		return specOutcome{}, err
	}
	if c.cfg.Store != nil {
		if res, ok := c.cfg.Store.Get(key); ok {
			c.mu.Lock()
			c.stats.CacheHits++
			c.mu.Unlock()
			return specOutcome{key: key, cached: true, result: res}, nil
		}
	}
	var lastErr error
	downAttempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return specOutcome{key: key}, err
		}
		allBusy := true
		for _, ns := range c.plan(key) {
			res, err := c.runOn(ctx, ns, canon)
			if err == nil {
				if c.cfg.Store != nil {
					_ = c.cfg.Store.Put(key, canon, res) // replicate; degrade silently
				}
				return specOutcome{key: key, node: ns.base, result: res}, nil
			}
			var ne *nodeError
			if !errors.As(err, &ne) {
				return specOutcome{key: key}, err // job error: no failover
			}
			lastErr = err
			if ne.down {
				allBusy = false
				c.markDown(ns)
				downAttempts++
				// The result may already sit in a surviving node's store
				// (keys are content addresses — any replica is authoritative).
				if res, ok := c.replicaLookup(ctx, key, ns); ok {
					if c.cfg.Store != nil {
						_ = c.cfg.Store.Put(key, canon, res)
					}
					return specOutcome{key: key, cached: true, result: res}, nil
				}
				if downAttempts > 2*len(c.nodes) {
					return specOutcome{key: key}, fmt.Errorf("cluster: no node could run the job: %w", lastErr)
				}
			}
			if ctx.Err() != nil {
				return specOutcome{key: key}, ctx.Err()
			}
		}
		if allBusy {
			// Every candidate's queue is full: wait for capacity. The
			// batch semaphore keeps the slot, so the wait propagates to
			// the client as backpressure; ctx bounds it.
			select {
			case <-ctx.Done():
				return specOutcome{key: key}, ctx.Err()
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
}

// runOn submits body to one node and drives the job to completion
// there, returning the result bytes.
func (c *Coordinator) runOn(ctx context.Context, ns *nodeState, body []byte) ([]byte, error) {
	c.addInflight(ns, 1)
	defer c.addInflight(ns, -1)
	st, _, err := c.submitTo(ctx, ns.base, body)
	if err != nil {
		return nil, err
	}
	if !terminalState(st.State) {
		if st, err = c.pollJob(ctx, ns.base, st.ID); err != nil {
			return nil, err
		}
	}
	switch st.State {
	case jobs.StateDone:
		return c.fetchResult(ctx, ns.base, st.ID)
	case jobs.StateCanceled:
		return nil, fmt.Errorf("job canceled on %s", ns.base)
	default:
		return nil, fmt.Errorf("job failed on %s: %s", ns.base, st.Error)
	}
}

func terminalState(s jobs.State) bool {
	return s == jobs.StateDone || s == jobs.StateFailed || s == jobs.StateCanceled
}

// submitTo POSTs a spec to a node and classifies the response.
func (c *Coordinator) submitTo(ctx context.Context, base string, body []byte) (jobs.Status, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", strings.NewReader(string(body)))
	if err != nil {
		return jobs.Status{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return jobs.Status{}, 0, &nodeError{err: fmt.Errorf("submit to %s: %w", base, err), down: true}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBatchLine))
	if err != nil {
		return jobs.Status{}, 0, &nodeError{err: fmt.Errorf("submit to %s: %w", base, err), down: true}
	}
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		var st jobs.Status
		if err := json.Unmarshal(data, &st); err != nil {
			return jobs.Status{}, 0, &nodeError{err: fmt.Errorf("submit to %s: bad status body: %w", base, err), down: true}
		}
		return st, resp.StatusCode, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		return jobs.Status{}, resp.StatusCode, &nodeError{err: fmt.Errorf("%s busy: %s", base, strings.TrimSpace(string(data)))}
	case resp.StatusCode == http.StatusBadRequest:
		return jobs.Status{}, resp.StatusCode, fmt.Errorf("node %s rejected spec: %s", base, strings.TrimSpace(string(data)))
	default:
		return jobs.Status{}, resp.StatusCode, &nodeError{err: fmt.Errorf("submit to %s: HTTP %d: %s", base, resp.StatusCode, strings.TrimSpace(string(data))), down: true}
	}
}

// pollJob polls a remote job until it reaches a terminal state.
func (c *Coordinator) pollJob(ctx context.Context, base, id string) (jobs.Status, error) {
	for {
		select {
		case <-ctx.Done():
			return jobs.Status{}, ctx.Err()
		case <-time.After(c.cfg.PollInterval):
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
		if err != nil {
			return jobs.Status{}, err
		}
		resp, err := c.client.Do(req)
		if err != nil {
			return jobs.Status{}, &nodeError{err: fmt.Errorf("poll %s: %w", base, err), down: true}
		}
		data, rerr := io.ReadAll(io.LimitReader(resp.Body, MaxBatchLine))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			return jobs.Status{}, &nodeError{err: fmt.Errorf("poll %s: HTTP %d", base, resp.StatusCode), down: true}
		}
		var st jobs.Status
		if err := json.Unmarshal(data, &st); err != nil {
			return jobs.Status{}, &nodeError{err: fmt.Errorf("poll %s: bad status body: %w", base, err), down: true}
		}
		if terminalState(st.State) {
			return st, nil
		}
	}
}

// fetchResult retrieves the result bytes of a done remote job.
func (c *Coordinator) fetchResult(ctx context.Context, base, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, &nodeError{err: fmt.Errorf("result from %s: %w", base, err), down: true}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &nodeError{err: fmt.Errorf("result from %s: %w", base, err), down: true}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &nodeError{err: fmt.Errorf("result from %s: HTTP %d: %s", base, resp.StatusCode, strings.TrimSpace(string(data))), down: true}
	}
	return data, nil
}

// replicaLookup probes the surviving nodes' stores for key. Nodes
// answer from their content-addressed store without recomputing
// (GET /v1/results/{key}), so a result computed before a crash — or by
// an earlier batch on any node — is recovered instead of re-run.
func (c *Coordinator) replicaLookup(ctx context.Context, key string, skip *nodeState) ([]byte, bool) {
	now := time.Now()
	c.mu.Lock()
	nodes := make([]*nodeState, 0, len(c.nodes))
	for _, ns := range c.nodes {
		if ns != skip && !now.Before(ns.downUntil) {
			nodes = append(nodes, ns)
		}
	}
	c.mu.Unlock()
	for _, ns := range nodes {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, ns.base+"/v1/results/"+key, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := c.client.Do(req)
		if err != nil {
			cancel()
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if rerr == nil && resp.StatusCode == http.StatusOK {
			c.mu.Lock()
			c.stats.ReplicaReads++
			c.mu.Unlock()
			return data, true
		}
	}
	return nil, false
}
