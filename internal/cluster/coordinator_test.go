// External test package: these tests stand up real sramd nodes
// (internal/server over internal/jobs managers) behind a coordinator,
// which would be an import cycle from inside package cluster.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sramtest/internal/cluster"
	"sramtest/internal/jobs"
	"sramtest/internal/server"
	"sramtest/internal/store"
)

// testNode is one sramd node: HTTP API, manager, and store.
type testNode struct {
	srv *httptest.Server
	api *server.Server
	mgr *jobs.Manager
	st  *store.Store
}

// startNodes boots n nodes sharing the given manager config (each gets
// its own fresh store, like separate machines would).
func startNodes(t *testing.T, n int, cfg jobs.Config) ([]*testNode, []string) {
	t.Helper()
	nodes := make([]*testNode, n)
	bases := make([]string, n)
	for i := range nodes {
		st, err := store.Open("", 256)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		c.Store = st
		if c.Workers == 0 {
			c.Workers = 4
		}
		if c.QueueDepth == 0 {
			c.QueueDepth = 64
		}
		mgr := jobs.NewManager(c)
		api := server.New(mgr, st)
		srv := httptest.NewServer(api)
		nodes[i] = &testNode{srv: srv, api: api, mgr: mgr, st: st}
		bases[i] = srv.URL
		t.Cleanup(func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			mgr.Drain(ctx)
		})
	}
	return nodes, bases
}

func startCoordinator(t *testing.T, bases []string, mutate func(*cluster.Config)) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	cfg := cluster.Config{Nodes: bases, PollInterval: 5 * time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	t.Cleanup(srv.Close)
	return coord, srv
}

func specLine(t *testing.T, s jobs.Spec) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func expSpec(samples int, seed int64) jobs.Spec {
	return jobs.Spec{Kind: jobs.KindExp, Exp: &jobs.ExpSpec{Samples: samples, Seed: seed}}
}

// fixtureBytes is the exact output jobs.FixtureRunner produces for spec
// — the oracle every node must match byte for byte.
func fixtureBytes(t *testing.T, s jobs.Spec) []byte {
	t.Helper()
	b, err := jobs.FixtureRunner(0)(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postBatch submits lines to url's /v1/batch and decodes the NDJSON
// stream. It returns an error instead of failing the test so it can run
// off the test goroutine.
func postBatch(url string, lines [][]byte) ([]cluster.BatchResult, error) {
	body := bytes.Join(lines, []byte("\n"))
	resp, err := http.Post(url+"/v1/batch", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("batch: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		return nil, fmt.Errorf("batch: Content-Type %q, want NDJSON", ct)
	}
	var out []cluster.BatchResult
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var br cluster.BatchResult
		if err := dec.Decode(&br); err != nil {
			return nil, err
		}
		out = append(out, br)
	}
	return out, nil
}

func mustBatch(t *testing.T, url string, lines [][]byte) []cluster.BatchResult {
	t.Helper()
	out, err := postBatch(url, lines)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// byIndex maps results by line index, enforcing the exactly-once half
// of the batch contract.
func byIndex(t *testing.T, results []cluster.BatchResult, want int) map[int]cluster.BatchResult {
	t.Helper()
	out := map[int]cluster.BatchResult{}
	for _, br := range results {
		if _, dup := out[br.Index]; dup {
			t.Fatalf("duplicate result for index %d", br.Index)
		}
		out[br.Index] = br
	}
	if len(out) != want {
		t.Fatalf("got %d results, want %d", len(out), want)
	}
	for i := 0; i < want; i++ {
		if _, ok := out[i]; !ok {
			t.Fatalf("missing result for index %d", i)
		}
	}
	return out
}

func topology(t *testing.T, url string) cluster.Topology {
	t.Helper()
	resp, err := http.Get(url + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var topo cluster.Topology
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestBatchMatchesSingleNode is the clustering contract in miniature:
// the same NDJSON lines through a 3-node cluster and through one node's
// local /v1/batch must yield the same keys and byte-identical results
// per index.
func TestBatchMatchesSingleNode(t *testing.T) {
	cfg := jobs.Config{Run: jobs.FixtureRunner(time.Millisecond)}
	_, bases := startNodes(t, 3, cfg)
	_, coordSrv := startCoordinator(t, bases, nil)
	single, _ := startNodes(t, 1, cfg)

	var lines [][]byte
	var specs []jobs.Spec
	for seed := int64(1); seed <= 18; seed++ {
		specs = append(specs, expSpec(8, seed))
	}
	specs = append(specs,
		jobs.Spec{Kind: jobs.KindCharac, Charac: &jobs.CharacSpec{Defects: []int{16}, CaseStudies: []int{1}}},
		jobs.Spec{Kind: jobs.KindCharac, Charac: &jobs.CharacSpec{Defects: []int{16}, CaseStudies: []int{2}}},
		jobs.Spec{Kind: jobs.KindTestFlow, TestFlow: &jobs.TestFlowSpec{Defects: []int{16, 17}}},
	)
	for _, s := range specs {
		lines = append(lines, specLine(t, s))
	}
	badIdx := len(lines)
	lines = append(lines, []byte(`{"kind":"bogus"}`)) // invalid on both sides

	viaCluster := byIndex(t, mustBatch(t, coordSrv.URL, lines), len(lines))
	viaNode := byIndex(t, mustBatch(t, single[0].srv.URL, lines), len(lines))

	for i, s := range specs {
		key, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		cr, nr := viaCluster[i], viaNode[i]
		if cr.State != cluster.BatchStateDone {
			t.Fatalf("index %d via cluster: state %s (%s)", i, cr.State, cr.Error)
		}
		if nr.State != cluster.BatchStateDone {
			t.Fatalf("index %d via node: state %s (%s)", i, nr.State, nr.Error)
		}
		if cr.Key != key || nr.Key != key {
			t.Fatalf("index %d keys %q / %q, want %q", i, cr.Key, nr.Key, key)
		}
		if want := fixtureBytes(t, s); !bytes.Equal(cr.Result, want) {
			t.Fatalf("index %d cluster bytes diverge from the fixture oracle", i)
		}
		if !bytes.Equal(cr.Result, nr.Result) {
			t.Fatalf("index %d cluster and single-node bytes differ", i)
		}
		if cr.Node == "" {
			t.Fatalf("index %d has no executing node recorded", i)
		}
	}
	if viaCluster[badIdx].State != cluster.BatchStateFailed || viaNode[badIdx].State != cluster.BatchStateFailed {
		t.Fatalf("invalid spec line not failed on both sides: cluster=%s node=%s",
			viaCluster[badIdx].State, viaNode[badIdx].State)
	}
}

// TestBatchReplicatesIntoCoordinatorStore: results stream back through
// the coordinator's replica store, so resubmitting the same batch is
// answered entirely from it — cached, byte-identical, no node traffic.
func TestBatchReplicatesIntoCoordinatorStore(t *testing.T) {
	_, bases := startNodes(t, 3, jobs.Config{Run: jobs.FixtureRunner(0)})
	st, err := store.Open("", 256)
	if err != nil {
		t.Fatal(err)
	}
	coord, coordSrv := startCoordinator(t, bases, func(c *cluster.Config) { c.Store = st })

	var lines [][]byte
	for seed := int64(100); seed < 112; seed++ {
		lines = append(lines, specLine(t, expSpec(4, seed)))
	}
	first := byIndex(t, mustBatch(t, coordSrv.URL, lines), len(lines))
	second := byIndex(t, mustBatch(t, coordSrv.URL, lines), len(lines))

	for i := range lines {
		if !second[i].Cached {
			t.Fatalf("index %d not served from the replica store on resubmit", i)
		}
		if !bytes.Equal(first[i].Result, second[i].Result) {
			t.Fatalf("index %d cached bytes differ from the computed ones", i)
		}
	}
	if s := coord.Stats(); s.CacheHits < int64(len(lines)) {
		t.Fatalf("CacheHits = %d, want >= %d", s.CacheHits, len(lines))
	}
}

// TestSubmitProxyLifecycle drives the single-job proxy path: submit
// through the coordinator, poll its local ID, fetch the result, and see
// the resubmission hit the coordinator's replica store.
func TestSubmitProxyLifecycle(t *testing.T) {
	_, bases := startNodes(t, 3, jobs.Config{Run: jobs.FixtureRunner(0)})
	st, err := store.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	coord, coordSrv := startCoordinator(t, bases, func(c *cluster.Config) { c.Store = st })

	line := specLine(t, expSpec(16, 42))
	resp, err := http.Post(coordSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	var jst jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&jst); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Sramd-Node") == "" {
		t.Fatal("submit response does not name the executing node")
	}
	if !strings.HasPrefix(jst.ID, "c") {
		t.Fatalf("proxy ID %q is not coordinator-local", jst.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for !time.Now().After(deadline) {
		resp, err := http.Get(coordSrv.URL + "/v1/jobs/" + jst.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&jst); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jst.State == jobs.StateDone || jst.State == jobs.StateFailed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jst.State != jobs.StateDone {
		t.Fatalf("proxied job ended %s: %s", jst.State, jst.Error)
	}

	resp, err = http.Get(coordSrv.URL + "/v1/jobs/" + jst.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fixtureBytes(t, expSpec(16, 42)); !bytes.Equal(got, want) {
		t.Fatalf("proxied result bytes diverge from the fixture oracle")
	}

	// Fetching the result replicated it; the same spec now short-circuits.
	resp, err = http.Post(coordSrv.URL+"/v1/jobs", "application/json", bytes.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	var cached jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&cached); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !cached.Cached || cached.State != jobs.StateDone {
		t.Fatalf("resubmit: HTTP %d, cached=%v state=%s; want a replica-store hit", resp.StatusCode, cached.Cached, cached.State)
	}
	if s := coord.Stats(); s.ProxiedJobs < 2 || s.CacheHits < 1 {
		t.Fatalf("stats %+v: want >= 2 proxied jobs and >= 1 cache hit", s)
	}
}

// TestWorkStealingReroutesHotShard saturates one owner shard with gated
// jobs and shows the next submission for that shard running elsewhere.
// StealThreshold 2 with 3 saturating jobs makes the phases
// deterministic: during saturation the owner's depth never exceeds the
// threshold at plan time, and the 4th submission always does.
func TestWorkStealingReroutesHotShard(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	run := func(ctx context.Context, spec jobs.Spec) ([]byte, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return jobs.FixtureRunner(0)(ctx, spec)
	}
	_, bases := startNodes(t, 3, jobs.Config{Run: run})
	coord, coordSrv := startCoordinator(t, bases, func(c *cluster.Config) {
		c.StealThreshold = 2
		c.MaxInflight = 8
	})
	defer release()

	// Specs that all hash to the same owner node, found by probing seeds
	// against the same ring the coordinator builds.
	ring := cluster.NewRing(bases, 0)
	var hot []jobs.Spec
	owner := -1
	for seed := int64(1); len(hot) < 4; seed++ {
		s := expSpec(4, seed)
		key, err := s.Key()
		if err != nil {
			t.Fatal(err)
		}
		switch o := ring.Owner(key); {
		case owner == -1:
			owner, hot = o, append(hot, s)
		case o == owner:
			hot = append(hot, s)
		}
	}

	// Phase 1: saturate the owner with 3 gated jobs.
	saturate := make(chan error, 1)
	go func() {
		lines := [][]byte{specLine(t, hot[0]), specLine(t, hot[1]), specLine(t, hot[2])}
		res, err := postBatch(coordSrv.URL, lines)
		if err == nil && len(res) != 3 {
			err = fmt.Errorf("saturation batch returned %d results", len(res))
		}
		saturate <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("owner shard never reached depth 3")
		}
		if topology(t, coordSrv.URL).Nodes[owner].Inflight == 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: the owner is over threshold — this one must be stolen.
	stolen := make(chan cluster.BatchResult, 1)
	go func() {
		res, err := postBatch(coordSrv.URL, [][]byte{specLine(t, hot[3])})
		if err != nil || len(res) != 1 {
			stolen <- cluster.BatchResult{State: cluster.BatchStateFailed, Error: fmt.Sprint(err)}
			return
		}
		stolen <- res[0]
	}()
	for {
		if time.Now().After(deadline) {
			t.Fatal("stolen submission never became inflight")
		}
		topo := topology(t, coordSrv.URL)
		var total int64
		for _, n := range topo.Nodes {
			total += n.Inflight
		}
		if total == 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	release()
	br := <-stolen
	if err := <-saturate; err != nil {
		t.Fatal(err)
	}
	if br.State != cluster.BatchStateDone {
		t.Fatalf("stolen job ended %s: %s", br.State, br.Error)
	}
	if br.Node == bases[owner] {
		t.Fatalf("4th submission ran on the hot owner %s; want it stolen to another node", br.Node)
	}
	if s := coord.Stats(); s.Stolen < 1 {
		t.Fatalf("Stolen = %d, want >= 1", s.Stolen)
	}
	if want := fixtureBytes(t, hot[3]); !bytes.Equal(br.Result, want) {
		t.Fatal("stolen job's bytes diverge from the fixture oracle")
	}
}

// TestCoordinatorMetricsShape pins the coordinator's /metrics families
// against testdata/metrics.golden: HELP and TYPE lines and series names
// with labels, values stripped, lines sorted. The node URLs are never
// dialled; /metrics reads only coordinator state.
func TestCoordinatorMetricsShape(t *testing.T) {
	st, err := store.Open("", 8)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.New(cluster.Config{Nodes: []string{"http://node-a.invalid", "http://node-b.invalid"}, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	coord.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", w.Code)
	}
	body := w.Body.String()
	if !strings.Contains(body, "sramd_cluster_nodes 2\n") {
		t.Errorf("metrics do not report 2 nodes:\n%s", body)
	}
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(l, "#") {
			l = l[:strings.LastIndexByte(l, ' ')]
		}
		lines = append(lines, l)
	}
	sort.Strings(lines)
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(lines, "\n") + "\n"; got != string(golden) {
		t.Errorf("/metrics families differ from testdata/metrics.golden:\ngot:\n%s", got)
	}
}
