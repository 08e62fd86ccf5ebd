package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"sramtest/internal/jobs"
	"sramtest/internal/metrics"
)

// errorBody mirrors the node API's error shape.
type errorBody struct {
	Error string `json:"error"`
	State string `json:"state,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// handleBatch fans a batch of specs out over the cluster and streams
// results back as NDJSON in completion order. In-flight execution is
// bounded by MaxInflight — intake beyond it waits, which together with
// runSpec's full-queue parking is the batch backpressure.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	lines, err := ReadBatchLines(http.MaxBytesReader(w, r.Body, MaxBatchBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(lines) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	bw := NewBatchWriter(w)

	out := make(chan BatchResult, c.cfg.MaxInflight)
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	var failed int64
	go func() {
		defer writerWg.Done()
		for br := range out {
			if br.State != BatchStateDone {
				failed++
			}
			_ = bw.Write(br) // a gone client cancels r.Context(); keep draining
		}
	}()

	workers := c.cfg.MaxInflight
	if workers > len(lines) {
		workers = len(lines)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out <- c.runLine(r.Context(), i, lines[i])
			}
		}()
	}
	for i := range lines {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(out)
	writerWg.Wait()

	c.mu.Lock()
	c.stats.Batches++
	c.stats.BatchJobs += int64(len(lines))
	c.stats.BatchErrors += failed
	c.mu.Unlock()
}

// runLine executes one batch line, mapping every failure mode onto a
// failed result line (the stream always emits exactly one line per
// input line).
func (c *Coordinator) runLine(ctx context.Context, i int, line []byte) BatchResult {
	spec, err := DecodeSpec(line)
	if err != nil {
		return BatchResult{Index: i, State: BatchStateFailed, Error: "malformed spec: " + err.Error()}
	}
	oc, err := c.runSpec(ctx, spec)
	if err != nil {
		return BatchResult{Index: i, Key: oc.key, State: BatchStateFailed, Error: err.Error()}
	}
	return BatchResult{Index: i, Key: oc.key, State: BatchStateDone, Node: oc.node, Cached: oc.cached, Result: oc.result}
}

// ---- single-job proxy ----

// handleSubmit routes one spec to its owner node asynchronously: the
// job is submitted remotely and a coordinator-local ID is returned for
// polling, exactly mirroring the node API's submit semantics. Unlike
// the batch path there is no mid-job failover — the proxy is a thin
// router; batch is the resilient bulk interface.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBatchLine))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "malformed spec: "+err.Error())
		return
	}
	canon, key, err := c.prepare(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if c.cfg.Store != nil {
		if res, ok := c.cfg.Store.Get(key); ok {
			now := time.Now().UTC()
			st := c.record(&remoteJob{kind: specKind(canon), key: key, canon: canon, result: res, created: now})
			c.mu.Lock()
			c.stats.CacheHits++
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	var lastErr error
	for _, ns := range c.plan(key) {
		st, code, err := c.submitTo(r.Context(), ns.base, canon)
		if err == nil {
			rj := &remoteJob{node: ns.base, remoteID: st.ID, kind: st.Kind, key: key, canon: canon, created: time.Now().UTC()}
			st.ID = c.recordID(rj)
			w.Header().Set("X-Sramd-Node", ns.base)
			writeJSON(w, code, st)
			return
		}
		var ne *nodeError
		if !errors.As(err, &ne) {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		lastErr = err
		if ne.down {
			c.markDown(ns)
		}
	}
	writeError(w, http.StatusBadGateway, fmt.Sprintf("no node accepted the job: %v", lastErr))
}

// specKind extracts the kind from a canonical spec for record-keeping.
func specKind(canon []byte) jobs.Kind {
	var s struct {
		Kind jobs.Kind `json:"kind"`
	}
	_ = json.Unmarshal(canon, &s)
	return s.Kind
}

// record registers a cache-hit job and returns its synthesized status.
func (c *Coordinator) record(rj *remoteJob) jobs.Status {
	id := c.recordID(rj)
	return jobs.Status{ID: id, Kind: rj.kind, Key: rj.key, State: jobs.StateDone, Cached: true,
		Created: rj.created, Started: rj.created, Finished: rj.created}
}

func (c *Coordinator) recordID(rj *remoteJob) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	c.stats.ProxiedJobs++
	id := fmt.Sprintf("c%06d", c.seq)
	c.jobs[id] = rj
	return id
}

func (c *Coordinator) lookup(id string) (*remoteJob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rj, ok := c.jobs[id]
	return rj, ok
}

func (c *Coordinator) forget(id string) {
	c.mu.Lock()
	delete(c.jobs, id)
	c.mu.Unlock()
}

// proxyRecord is the list entry for one routed job.
type proxyRecord struct {
	ID   string    `json:"id"`
	Node string    `json:"node,omitempty"`
	Key  string    `json:"key"`
	Kind jobs.Kind `json:"kind"`
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]proxyRecord, 0, len(c.jobs))
	for id, rj := range c.jobs {
		out = append(out, proxyRecord{ID: id, Node: rj.node, Key: rj.key, Kind: rj.kind})
	}
	c.mu.Unlock()
	// IDs are zero-padded, so lexicographic order is submission order.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rj, ok := c.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job not found")
		return
	}
	if rj.result != nil {
		writeJSON(w, http.StatusOK, jobs.Status{ID: id, Kind: rj.kind, Key: rj.key, State: jobs.StateDone,
			Cached: true, Created: rj.created, Started: rj.created, Finished: rj.created})
		return
	}
	st, err := c.remoteStatus(r.Context(), rj)
	if err != nil {
		c.proxyError(w, id, err)
		return
	}
	st.ID = id
	w.Header().Set("X-Sramd-Node", rj.node)
	writeJSON(w, http.StatusOK, st)
}

// remoteStatus fetches a proxied job's status from its node.
func (c *Coordinator) remoteStatus(ctx context.Context, rj *remoteJob) (jobs.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rj.node+"/v1/jobs/"+rj.remoteID, nil)
	if err != nil {
		return jobs.Status{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return jobs.Status{}, &nodeError{err: err, down: true}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBatchLine))
	if err != nil {
		return jobs.Status{}, &nodeError{err: err, down: true}
	}
	if resp.StatusCode == http.StatusNotFound {
		return jobs.Status{}, errRemoteGone
	}
	if resp.StatusCode != http.StatusOK {
		return jobs.Status{}, &nodeError{err: fmt.Errorf("HTTP %d", resp.StatusCode), down: true}
	}
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return jobs.Status{}, &nodeError{err: err, down: true}
	}
	return st, nil
}

var errRemoteGone = fmt.Errorf("job no longer on its node")

// proxyError maps a proxy failure onto a response, garbage-collecting
// mappings whose remote record is gone.
func (c *Coordinator) proxyError(w http.ResponseWriter, id string, err error) {
	if err == errRemoteGone {
		c.forget(id)
		writeError(w, http.StatusNotFound, "job not found")
		return
	}
	writeError(w, http.StatusBadGateway, err.Error())
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rj, ok := c.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job not found")
		return
	}
	if rj.result != nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(rj.result)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rj.node+"/v1/jobs/"+rj.remoteID+"/result", nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	if resp.StatusCode == http.StatusNotFound {
		c.forget(id)
	}
	if resp.StatusCode == http.StatusOK && c.cfg.Store != nil {
		_ = c.cfg.Store.Put(rj.key, rj.canon, data) // replicate on the way through
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(data)
}

func (c *Coordinator) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rj, ok := c.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "job not found")
		return
	}
	if rj.result != nil { // local cache-hit record: forget it
		c.forget(id)
		writeJSON(w, http.StatusOK, jobs.Status{ID: id, Kind: rj.kind, Key: rj.key, State: jobs.StateDone, Cached: true})
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodDelete, rj.node+"/v1/jobs/"+rj.remoteID, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBatchLine))
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	if resp.StatusCode == http.StatusNotFound {
		c.forget(id)
		writeError(w, http.StatusNotFound, "job not found")
		return
	}
	var st jobs.Status
	if json.Unmarshal(data, &st) == nil && (st.State == jobs.StateDone || st.State == jobs.StateFailed) {
		c.forget(id) // the node forgot its record; drop the mapping too
	}
	st.ID = id
	writeJSON(w, resp.StatusCode, st)
}

// ---- topology, health, metrics ----

// NodeInfo is one node's row in the topology report.
type NodeInfo struct {
	Node     string `json:"node"`
	Healthy  bool   `json:"healthy"`
	Inflight int64  `json:"inflight"`
	Queued   int64  `json:"queued"`
	Running  int64  `json:"running"`
	Error    string `json:"error,omitempty"`
}

// Topology is the GET /v1/cluster body.
type Topology struct {
	Nodes          []NodeInfo `json:"nodes"`
	VNodes         int        `json:"vnodes"`
	StealThreshold int        `json:"stealThreshold"`
}

// handleTopology polls every node's /v1/load live and reports the
// cluster's shape: health, coordinator-tracked inflight, and each
// node's own queue depth.
func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	c.mu.Lock()
	nodes := append([]*nodeState(nil), c.nodes...)
	c.mu.Unlock()
	infos := make([]NodeInfo, len(nodes))
	var wg sync.WaitGroup
	for i, ns := range nodes {
		c.mu.Lock()
		infos[i] = NodeInfo{Node: ns.base, Healthy: !now.Before(ns.downUntil), Inflight: ns.inflight}
		c.mu.Unlock()
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/load", nil)
			if err != nil {
				infos[i].Error = err.Error()
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				infos[i].Healthy = false
				infos[i].Error = err.Error()
				return
			}
			defer resp.Body.Close()
			var load struct {
				Queued  int64 `json:"queued"`
				Running int64 `json:"running"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&load); err != nil {
				infos[i].Error = err.Error()
				return
			}
			infos[i].Queued, infos[i].Running = load.Queued, load.Running
		}(i, ns.base)
	}
	wg.Wait()
	vn := c.cfg.VNodes
	if vn <= 0 {
		vn = defaultVNodes
	}
	writeJSON(w, http.StatusOK, Topology{Nodes: infos, VNodes: vn, StealThreshold: c.cfg.StealThreshold})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleMetrics writes the coordinator's own sramd_cluster_* families;
// the node-side families are served by each node.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s := c.Stats()
	mw := metrics.NewWriter(w)
	mw.Gauge("sramd_cluster_nodes", "Configured nodes.", s.Nodes)
	mw.Gauge("sramd_cluster_nodes_healthy", "Nodes not in failure cooldown.", s.Healthy)
	mw.Counter("sramd_cluster_routed_total", "Routing decisions.", s.Routed)
	mw.Counter("sramd_cluster_stolen_total", "Submissions rerouted off a hot owner shard.", s.Stolen)
	mw.Counter("sramd_cluster_failover_total", "Node failures survived by retrying elsewhere.", s.Failovers)
	mw.Counter("sramd_cluster_replica_reads_total", "Results recovered from a surviving node's store.", s.ReplicaReads)
	mw.Counter("sramd_cluster_cache_hits_total", "Submissions answered from the coordinator's replica store.", s.CacheHits)
	mw.Counter("sramd_cluster_batches_total", "Batch requests served.", s.Batches)
	mw.Counter("sramd_cluster_batch_jobs_total", "Specs received across all batches.", s.BatchJobs)
	mw.Counter("sramd_cluster_batch_errors_total", "Batch lines that ended failed.", s.BatchErrors)
	mw.Counter("sramd_cluster_proxied_jobs_total", "Single jobs routed through the proxy endpoints.", s.ProxiedJobs)
	mw.Counter("sramd_cluster_diag_batches_total", "Streaming diagnosis requests fanned out.", s.DiagBatches)
	mw.Counter("sramd_cluster_diag_lines_total", "Signature lines received across diagnosis requests.", s.DiagLines)
	mw.Counter("sramd_cluster_diag_errors_total", "Diagnosis lines that ended failed.", s.DiagErrors)

	now := time.Now()
	c.mu.Lock()
	nodes := make([]nodeState, len(c.nodes))
	for i, ns := range c.nodes {
		nodes[i] = *ns
	}
	c.mu.Unlock()
	mw.Family("sramd_cluster_node_up", "Node availability (1 = not in cooldown).", "gauge")
	for _, ns := range nodes {
		up := 1
		if now.Before(ns.downUntil) {
			up = 0
		}
		mw.Sample("sramd_cluster_node_up", up, "node", ns.base)
	}
	mw.Family("sramd_cluster_node_inflight", "Coordinator-originated jobs in flight per node.", "gauge")
	for _, ns := range nodes {
		mw.Sample("sramd_cluster_node_inflight", ns.inflight, "node", ns.base)
	}

	if st := c.cfg.Store; st != nil {
		_, _, evictions := st.Stats()
		mw.Gauge("sramd_cluster_store_entries", "Replicated results currently stored.", st.Len())
		mw.Counter("sramd_cluster_store_evictions_total", "LRU evictions since start.", evictions)
	}
}
