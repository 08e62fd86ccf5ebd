package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sramtest/internal/cluster"
	"sramtest/internal/diag"
	"sramtest/internal/diag/diagtest"
	"sramtest/internal/diag/index"
	"sramtest/internal/jobs"
	"sramtest/internal/server"
)

// loadDiag equips every node with the same dictionary artifact, the way
// a fleet started with a shared -diag-dict file would be.
func loadDiag(t *testing.T, nodes []*testNode) *diag.Dictionary {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	d, err := diagtest.RandomDictionary(rng, 80, 9, diag.DefaultFlowConditions())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		ix, err := index.New(d)
		if err != nil {
			t.Fatal(err)
		}
		st := ix.Stats()
		n.api.Diag = ix
		n.api.DiagInfo = server.DiagInfo{Entries: st.Entries, Flow: len(d.Flow), Indexed: true,
			Groups: st.Groups, Buckets: st.Buckets}
	}
	return d
}

// postClusterDiagnose streams lines through the coordinator and decodes
// the index-keyed results, enforcing one line per input.
func postClusterDiagnose(t *testing.T, url string, lines []string, want int) map[int]cluster.DiagLineResult {
	t.Helper()
	resp, err := http.Post(url+"/v1/diagnose", "application/x-ndjson",
		strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster diagnose: HTTP %d", resp.StatusCode)
	}
	out := map[int]cluster.DiagLineResult{}
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var dr cluster.DiagLineResult
		if err := dec.Decode(&dr); err != nil {
			t.Fatal(err)
		}
		if _, dup := out[dr.Index]; dup {
			t.Fatalf("duplicate result for index %d", dr.Index)
		}
		out[dr.Index] = dr
	}
	if len(out) != want {
		t.Fatalf("got %d results, want %d", len(out), want)
	}
	return out
}

// TestClusterDiagnoseFanout shards a signature stream over two nodes
// and checks every line comes back remapped to its request index with a
// diagnosis byte-identical to a local match.
func TestClusterDiagnoseFanout(t *testing.T) {
	nodes, bases := startNodes(t, 2, jobs.Config{Run: jobs.FixtureRunner(0)})
	d := loadDiag(t, nodes)
	_, csrv := startCoordinator(t, bases, nil)

	var lines []string
	for i := 0; i < 9; i++ {
		sig, _ := json.Marshal(d.Entries[i%len(d.Entries)].Sig)
		lines = append(lines, fmt.Sprintf(`{"sig":%s}`, sig))
	}
	lines = append(lines, "garbage line")
	res := postClusterDiagnose(t, csrv.URL, lines, len(lines))

	served := map[string]int{}
	for i := 0; i < 9; i++ {
		dr := res[i]
		if dr.Error != "" || dr.Diagnosis == nil {
			t.Fatalf("line %d failed: %+v", i, dr)
		}
		served[dr.Node]++
		want, _ := json.Marshal(d.Match(d.Entries[i%len(d.Entries)].Sig))
		if !bytes.Equal(want, dr.Diagnosis) {
			t.Fatalf("line %d: fanned-out diagnosis differs from local match\nwant %s\ngot  %s",
				i, want, dr.Diagnosis)
		}
	}
	if len(served) != 2 {
		t.Fatalf("stream served by %d node(s), want both: %v", len(served), served)
	}
	if dr := res[9]; dr.Error == "" || dr.Diagnosis != nil {
		t.Fatalf("malformed line should fail individually: %+v", dr)
	}

	// The info endpoint proxies a live node's dictionary report.
	resp, err := http.Get(csrv.URL + "/v1/diagnose")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info server.DiagInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Entries != len(d.Entries) || !info.Indexed {
		t.Fatalf("proxied diagnose info %+v", info)
	}
}

// TestClusterDiagnoseFailover kills one node and checks its shard's
// lines are re-answered by the survivor — the stream still emits one
// good line per input.
func TestClusterDiagnoseFailover(t *testing.T) {
	nodes, bases := startNodes(t, 2, jobs.Config{Run: jobs.FixtureRunner(0)})
	d := loadDiag(t, nodes)
	coord, csrv := startCoordinator(t, bases, nil)
	nodes[1].srv.Close() // node dies before the stream arrives

	var lines []string
	for i := 0; i < 6; i++ {
		sig, _ := json.Marshal(d.Entries[i].Sig)
		lines = append(lines, fmt.Sprintf(`{"sig":%s}`, sig))
	}
	res := postClusterDiagnose(t, csrv.URL, lines, len(lines))
	for i := 0; i < 6; i++ {
		dr := res[i]
		if dr.Error != "" || dr.Diagnosis == nil {
			t.Fatalf("line %d not recovered after node death: %+v", i, dr)
		}
		if dr.Node != bases[0] {
			t.Fatalf("line %d served by %q, want survivor %q", i, dr.Node, bases[0])
		}
	}
	if s := coord.Stats(); s.Failovers == 0 || s.DiagBatches != 1 || s.DiagLines != 6 {
		t.Fatalf("coordinator stats %+v, want a failover and 1 batch / 6 lines", s)
	}
}

// TestClusterDiagnoseLargeResultLines: a fleet-scale dictionary answers
// with diagnosis lines of megabytes (wide ambiguity sets), beyond the
// request-line bound; the coordinator must relay them, not fail them.
func TestClusterDiagnoseLargeResultLines(t *testing.T) {
	big := strings.Repeat("x", 2*cluster.MaxBatchLine)
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lines, err := cluster.ReadBatchLines(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range lines {
			fmt.Fprintf(w, "{\"index\":%d,\"diagnosis\":%q}\n", i, big)
		}
	}))
	t.Cleanup(node.Close)
	_, csrv := startCoordinator(t, []string{node.URL}, nil)
	res := postClusterDiagnose(t, csrv.URL, []string{`{"sig":1}`, `{"sig":2}`}, 2)
	for i, dr := range res {
		if dr.Error != "" || len(dr.Diagnosis) != len(big)+2 {
			t.Errorf("line %d: error %q, %d diagnosis bytes, want %d", i, dr.Error, len(dr.Diagnosis), len(big)+2)
		}
	}
}
