package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sramtest/internal/cluster"
	"sramtest/internal/jobs"
)

// cannedBatch serves a fixed NDJSON response to POST /v1/batch after
// checking that the request carries n spec lines; it runs no job.
func cannedBatch(t *testing.T, n, status int, body string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/batch" {
			http.NotFound(w, r)
			return
		}
		lines, err := cluster.ReadBatchLines(r.Body)
		if err != nil || len(lines) != n {
			t.Errorf("request carried %d spec lines (err %v), want %d", len(lines), err, n)
		}
		for i, line := range lines {
			if _, err := cluster.DecodeSpec(line); err != nil {
				t.Errorf("spec line %d: %v", i, err)
			}
		}
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func resultLine(t *testing.T, br cluster.BatchResult) string {
	t.Helper()
	b, err := json.Marshal(br)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func done(t *testing.T, i int, result string) string {
	return resultLine(t, cluster.BatchResult{Index: i, State: cluster.BatchStateDone, Result: []byte(result)})
}

// TestPostBatch drives the fan-out client against canned streams.
func TestPostBatch(t *testing.T) {
	specs := make([]jobs.Spec, 3)
	for s := range specs {
		specs[s] = jobs.Spec{Kind: jobs.KindYield, Yield: &jobs.YieldSpec{Samples: 64, Shards: 3, Shard: s}}
	}
	failed := resultLine(t, cluster.BatchResult{Index: 1, State: cluster.BatchStateFailed, Error: "solver diverged"})
	for _, c := range []struct {
		name    string
		status  int
		body    string
		wantErr string
	}{
		{"out of order", http.StatusOK, done(t, 2, `"c"`) + done(t, 0, `"a"`) + done(t, 1, `"b"`), ""},
		{"failed line", http.StatusOK, done(t, 0, `"a"`) + failed + done(t, 2, `"c"`), "solver diverged"},
		{"duplicate index", http.StatusOK, done(t, 0, `"a"`) + done(t, 0, `"a"`) + done(t, 1, `"b"`), "unexpected result index 0"},
		{"index out of range", http.StatusOK, done(t, 0, `"a"`) + done(t, 3, `"d"`), "unexpected result index 3"},
		{"negative index", http.StatusOK, done(t, -1, `"a"`), "unexpected result index -1"},
		{"missing index", http.StatusOK, done(t, 2, `"c"`) + done(t, 0, `"a"`), "without line 1"},
		{"truncated line", http.StatusOK, done(t, 0, `"a"`) + `{"index":1,"sta`, "batch stream"},
		{"non-200", http.StatusServiceUnavailable, "cluster has no healthy node\n", "HTTP 503: cluster has no healthy node"},
	} {
		srv := cannedBatch(t, len(specs), c.status, c.body)
		got, err := cluster.PostBatch(context.Background(), srv.URL, specs)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i, want := range []string{`"a"`, `"b"`, `"c"`} {
			if string(got[i]) != want {
				t.Errorf("%s: result %d = %s, want %s", c.name, i, got[i], want)
			}
		}
	}
}

// runningNode answers POST /v1/batch by running each spec line through
// jobs.Run, streaming the results in reverse order.
func runningNode(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lines, err := cluster.ReadBatchLines(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		bw := cluster.NewBatchWriter(w)
		for i := len(lines) - 1; i >= 0; i-- {
			spec, err := cluster.DecodeSpec(lines[i])
			if err != nil {
				t.Error(err)
				return
			}
			out, err := jobs.Run(r.Context(), spec)
			if err != nil {
				t.Error(err)
				return
			}
			_ = bw.Write(cluster.BatchResult{Index: i, State: cluster.BatchStateDone, Result: out})
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunShardedMatchesRun: a sharded run renders exactly jobs.Run's
// bytes for the whole spec, text and CSV, and refuses a result that is
// not a partial or a one-shard split.
func TestRunShardedMatchesRun(t *testing.T) {
	srv := runningNode(t)
	for _, csv := range []bool{false, true} {
		spec := jobs.Spec{Kind: jobs.KindNoiseScan, CSV: csv, NoiseScan: &jobs.NoiseScanSpec{Points: 4}}
		want, err := jobs.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.RunSharded(context.Background(), srv.URL, spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("csv=%v: sharded bytes differ from jobs.Run:\n--- sharded ---\n%s\n--- run ---\n%s", csv, got, want)
		}
	}

	spec := jobs.Spec{Kind: jobs.KindYield, Yield: &jobs.YieldSpec{Samples: 64}}
	if _, err := cluster.RunSharded(context.Background(), srv.URL, spec, 1); !errors.Is(err, jobs.ErrBadSpec) {
		t.Errorf("one shard: err = %v, want ErrBadSpec", err)
	}
	canned := cannedBatch(t, 2, http.StatusOK, done(t, 1, `{}`)+done(t, 0, "table text"))
	if _, err := cluster.RunSharded(context.Background(), canned.URL, spec, 2); err == nil || !strings.Contains(err.Error(), "shard 0: bad partial") {
		t.Errorf("non-JSON result: err = %v, want a bad-partial error", err)
	}
}
