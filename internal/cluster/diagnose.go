package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// The streaming diagnosis fan-out. Every node loaded the same
// dictionary artifact (sramd -diag-dict), so any node can diagnose any
// signature and sharding is pure load spreading: request lines
// interleave round-robin across healthy nodes, each node streams its
// shard's results back, and the coordinator remaps the per-shard line
// indices onto the original request order (completion-ordered output,
// exactly like /v1/batch). A node failing mid-shard re-routes only its
// unanswered lines to the next healthy node.

// DiagLineResult mirrors the node server's /v1/diagnose response line
// at the protocol level (the diagnosis body passes through opaquely).
type DiagLineResult struct {
	Index     int             `json:"index"`
	Diagnosis json.RawMessage `json:"diagnosis,omitempty"`
	Node      string          `json:"node,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// handleDiagnose fans a signature stream out over the fleet.
func (c *Coordinator) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	lines, err := ReadBatchLines(http.MaxBytesReader(w, r.Body, MaxBatchBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(lines) == 0 {
		writeError(w, http.StatusBadRequest, "empty diagnosis batch")
		return
	}
	nodes := c.liveNodes()
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	out := make(chan DiagLineResult, 16)
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	var failed int64
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	f, _ := w.(http.Flusher)
	go func() {
		defer writerWg.Done()
		for dr := range out {
			if dr.Error != "" {
				failed++
			}
			_ = enc.Encode(dr) // a gone client cancels r.Context(); keep draining
			if f != nil {
				f.Flush()
			}
		}
	}()

	// Interleaved shards: line i goes to shard i mod n, so a short
	// stream still spreads over the whole fleet.
	shards := make([][]int, len(nodes))
	for i := range lines {
		s := i % len(shards)
		shards[s] = append(shards[s], i)
	}
	var wg sync.WaitGroup
	for s := range shards {
		if len(shards[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c.diagnoseShard(r.Context(), nodes, s, shards[s], lines, out)
		}(s)
	}
	wg.Wait()
	close(out)
	writerWg.Wait()

	c.mu.Lock()
	c.stats.DiagBatches++
	c.stats.DiagLines += int64(len(lines))
	c.stats.DiagErrors += failed
	c.mu.Unlock()
}

// liveNodes snapshots the healthy fleet (all nodes when everything is
// in cooldown — better to try than to fail the stream outright).
func (c *Coordinator) liveNodes() []*nodeState {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	live := make([]*nodeState, 0, len(c.nodes))
	for _, ns := range c.nodes {
		if !now.Before(ns.downUntil) {
			live = append(live, ns)
		}
	}
	if len(live) == 0 {
		live = append(live, c.nodes...)
	}
	return live
}

// diagnoseShard drives one shard's lines to completion: the owner node
// first, then — for lines it left unanswered — each other live node in
// turn. Lines no node answered become error lines; the stream always
// emits exactly one line per input line.
func (c *Coordinator) diagnoseShard(ctx context.Context, nodes []*nodeState, owner int, idxs []int, lines [][]byte, out chan<- DiagLineResult) {
	pending := idxs
	var lastErr error
	for attempt := 0; attempt < len(nodes) && len(pending) > 0; attempt++ {
		ns := nodes[(owner+attempt)%len(nodes)]
		var err error
		pending, err = c.diagnoseOn(ctx, ns.base, pending, lines, out)
		if err != nil {
			lastErr = err
			c.markDown(ns)
			c.mu.Lock()
			c.stats.Failovers++
			c.mu.Unlock()
		}
	}
	msg := "no node answered"
	if lastErr != nil {
		msg = lastErr.Error()
	}
	for _, i := range pending {
		out <- DiagLineResult{Index: i, Error: "diagnosis failed: " + msg}
	}
}

// diagnoseOn streams one shard slice through a node, remapping the
// node-local line indices onto the original request indices, and
// returns the lines the node did not answer (transport failures;
// per-line decode errors are answered lines).
func (c *Coordinator) diagnoseOn(ctx context.Context, base string, idxs []int, lines [][]byte, out chan<- DiagLineResult) ([]int, error) {
	var body bytes.Buffer
	for _, i := range idxs {
		body.Write(lines[i])
		body.WriteByte('\n')
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/diagnose", &body)
	if err != nil {
		return idxs, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.client.Do(req)
	if err != nil {
		return idxs, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return idxs, fmt.Errorf("node %s: HTTP %d: %s", base, resp.StatusCode, bytes.TrimSpace(msg))
	}

	answered := make([]bool, len(idxs))
	sc := bufio.NewScanner(resp.Body)
	// A result line is not a request line: over a fleet-scale dictionary
	// one diagnosis carries an ambiguity set of megabytes, so the bound
	// is the whole-body one.
	sc.Buffer(make([]byte, 64<<10), MaxBatchBody)
	n := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var dr DiagLineResult
		if err := json.Unmarshal(line, &dr); err != nil {
			return remaining(idxs, answered), fmt.Errorf("node %s: malformed result line: %v", base, err)
		}
		if dr.Index < 0 || dr.Index >= len(idxs) || answered[dr.Index] {
			return remaining(idxs, answered), fmt.Errorf("node %s: result index %d out of shard range", base, dr.Index)
		}
		answered[dr.Index] = true
		dr.Index = idxs[dr.Index]
		dr.Node = base
		out <- dr
		n++
	}
	if err := sc.Err(); err != nil {
		return remaining(idxs, answered), err
	}
	if n < len(idxs) {
		return remaining(idxs, answered), fmt.Errorf("node %s: stream ended after %d of %d lines", base, n, len(idxs))
	}
	return nil, nil
}

// remaining lists the original indices not yet answered.
func remaining(idxs []int, answered []bool) []int {
	var rem []int
	for k, a := range answered {
		if !a {
			rem = append(rem, idxs[k])
		}
	}
	return rem
}

// handleDiagnoseInfo proxies the dictionary report from the first live
// node (every node serves the same artifact).
func (c *Coordinator) handleDiagnoseInfo(w http.ResponseWriter, r *http.Request) {
	var lastErr error
	for _, ns := range c.liveNodes() {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, ns.base+"/v1/diagnose", nil)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp, err := c.client.Do(req)
		if err != nil {
			lastErr = err
			c.markDown(ns)
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBatchLine))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("X-Sramd-Node", ns.base)
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(data)
		return
	}
	writeError(w, http.StatusBadGateway, fmt.Sprintf("no node reachable: %v", lastErr))
}
