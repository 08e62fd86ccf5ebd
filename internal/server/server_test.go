package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"sramtest/internal/diag"
	"sramtest/internal/jobs"
	"sramtest/internal/store"
)

// newTestServer wires a server around a fake runner so handler tests are
// instant; pass nil run for the real CLI-identical runners.
func newTestServer(t *testing.T, run jobs.RunFunc) (*Server, *jobs.Manager, *store.Store) {
	t.Helper()
	st, err := store.Open("", 32)
	if err != nil {
		t.Fatal(err)
	}
	mgr := jobs.NewManager(jobs.Config{Workers: 2, QueueDepth: 8, Store: st, Run: run})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Drain(ctx)
	})
	return New(mgr, st), mgr, st
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, jobs.Status) {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var st jobs.Status
	if ct := w.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		_ = json.Unmarshal(w.Body.Bytes(), &st)
	}
	return w, st
}

func pollDone(t *testing.T, h http.Handler, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		w, st := doJSON(t, h, "GET", "/v1/jobs/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d: %s", id, w.Code, w.Body)
		}
		switch st.State {
		case jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.Status{}
}

func TestSubmitPollResultLifecycle(t *testing.T) {
	srv, _, _ := newTestServer(t, func(ctx context.Context, spec jobs.Spec) ([]byte, error) {
		return []byte("fake table\n"), nil
	})

	w, st := doJSON(t, srv, "POST", "/v1/jobs", `{"kind":"exp","exp":{"samples":8}}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", w.Code, w.Body)
	}
	if st.ID == "" || st.Kind != jobs.KindExp {
		t.Fatalf("submit status = %+v", st)
	}

	done := pollDone(t, srv, st.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("final state = %s (%s)", done.State, done.Error)
	}

	w, _ = doJSON(t, srv, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if w.Code != http.StatusOK || w.Body.String() != "fake table\n" {
		t.Fatalf("result: HTTP %d %q", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("result Content-Type = %q", ct)
	}

	// The listing shows the record.
	w, _ = doJSON(t, srv, "GET", "/v1/jobs", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), st.ID) {
		t.Errorf("list: HTTP %d %s", w.Code, w.Body)
	}
}

func TestSubmitErrorPaths(t *testing.T) {
	srv, _, _ := newTestServer(t, func(ctx context.Context, spec jobs.Spec) ([]byte, error) {
		return []byte("x"), nil
	})

	for name, body := range map[string]string{
		"malformed json": `{"kind":`,
		"unknown kind":   `{"kind":"nope"}`,
		"unknown field":  `{"kind":"exp","exp":{"samples":8},"zzz":1}`,
		"bad defect":     `{"kind":"charac","charac":{"defects":[99]}}`,
		"missing exp":    `{"kind":"exp"}`,
	} {
		w, _ := doJSON(t, srv, "POST", "/v1/jobs", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, w.Code)
		}
	}
}

func TestUnknownJob404s(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	for _, req := range [][2]string{
		{"GET", "/v1/jobs/j999999"},
		{"GET", "/v1/jobs/j999999/result"},
		{"DELETE", "/v1/jobs/j999999"},
	} {
		w, _ := doJSON(t, srv, req[0], req[1], "")
		if w.Code != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", req[0], req[1], w.Code)
		}
	}
}

func TestResultNotReadyConflicts(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, _, _ := newTestServer(t, func(ctx context.Context, spec jobs.Spec) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []byte("late"), nil
	})
	_, st := doJSON(t, srv, "POST", "/v1/jobs", `{"kind":"exp","exp":{"samples":8}}`)
	w, _ := doJSON(t, srv, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if w.Code != http.StatusConflict {
		t.Errorf("unfinished result: HTTP %d, want 409", w.Code)
	}
}

func TestCancelRunningJobVisibleOverHTTP(t *testing.T) {
	started := make(chan struct{})
	srv, _, _ := newTestServer(t, func(ctx context.Context, spec jobs.Spec) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, st := doJSON(t, srv, "POST", "/v1/jobs", `{"kind":"exp","exp":{"samples":8}}`)
	<-started
	if w, _ := doJSON(t, srv, "DELETE", "/v1/jobs/"+st.ID, ""); w.Code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", w.Code)
	}
	final := pollDone(t, srv, st.ID)
	if final.State != jobs.StateCanceled {
		t.Fatalf("state after cancel = %s", final.State)
	}
	if w, _ := doJSON(t, srv, "GET", "/v1/jobs/"+st.ID+"/result", ""); w.Code != http.StatusGone {
		t.Errorf("canceled result: HTTP %d, want 410", w.Code)
	}
}

func TestFailedJobResultIs500(t *testing.T) {
	srv, _, _ := newTestServer(t, func(ctx context.Context, spec jobs.Spec) ([]byte, error) {
		return nil, fmt.Errorf("solver diverged")
	})
	_, st := doJSON(t, srv, "POST", "/v1/jobs", `{"kind":"exp","exp":{"samples":8}}`)
	if final := pollDone(t, srv, st.ID); final.State != jobs.StateFailed {
		t.Fatalf("state = %s", final.State)
	}
	w, _ := doJSON(t, srv, "GET", "/v1/jobs/"+st.ID+"/result", "")
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "solver diverged") {
		t.Errorf("failed result: HTTP %d %s", w.Code, w.Body)
	}
}

func TestHealthzAndMetricsShape(t *testing.T) {
	srv, _, _ := newTestServer(t, func(ctx context.Context, spec jobs.Spec) ([]byte, error) {
		return []byte("x"), nil
	})
	w, _ := doJSON(t, srv, "GET", "/healthz", "")
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("healthz: HTTP %d %q", w.Code, w.Body)
	}

	_, st := doJSON(t, srv, "POST", "/v1/jobs", `{"kind":"exp","exp":{"samples":8}}`)
	pollDone(t, srv, st.ID)

	w, _ = doJSON(t, srv, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`sramd_jobs{state="done"} 1`,
		"sramd_cache_misses_total 1",
		"sramd_cache_hit_ratio 0",
		"sramd_job_duration_seconds_bucket{le=\"+Inf\"} 1",
		"sramd_job_duration_seconds_count 1",
		"sramd_store_entries 1",
		"sramd_yield_runs_total",
		`sramd_yield_decisions_total{outcome="screened"}`,
		"sramd_yield_last_ess",
		"sramd_faultmap_runs_total",
		"sramd_faultmap_maps_total",
		"sramd_faultmap_last_best_coverage",
		"sramd_engine_drv_solves_total",
		"sramd_engine_drv_cache_hits_total",
		"sramd_engine_drv_cache_entries",
		"sramd_noise_scans_total",
		"sramd_noise_flips_total",
		"sramd_noise_last_tighten_volts",
		"sramd_spice_noise_evals_total",
		"sramd_spice_ensemble_runs_total",
		"sramd_spice_ensemble_steps_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := exposition(body); got != string(golden) {
		t.Errorf("/metrics families differ from testdata/metrics.golden:\ngot:\n%s", got)
	}
}

// TestScrapedNamesInGolden guards the names other tools scrape from
// /metrics: every sramd_ name the smoke scripts grep for, and every
// counter sramdbench reports, must be a family of the node or
// coordinator golden (a trailing "_" or a whole-word prefix matches the
// families it names). sramdbench reports a vanished name as 0 rather
// than failing, so without this guard a rename would go unnoticed.
func TestScrapedNamesInGolden(t *testing.T) {
	var golden []string
	for _, path := range []string{"testdata/metrics.golden", "../cluster/testdata/metrics.golden"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if !strings.HasPrefix(l, "#") {
				name, _, _ := strings.Cut(l, "{")
				golden = append(golden, name+"_")
			}
		}
	}
	name := regexp.MustCompile(`sramd_[a-z_]+`)
	scraped := map[string]string{}
	scripts, err := filepath.Glob("../../scripts/*.sh")
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no smoke scripts found: %v", err)
	}
	for _, path := range scripts {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range name.FindAllString(string(b), -1) {
			scraped[n] = path
		}
	}
	trace, err := os.ReadFile("../../sramdbench/trace.go")
	if err != nil {
		t.Fatal(err)
	}
	_, counters, ok := strings.Cut(string(trace), "var sramdCounters = []string{")
	counters, _, _ = strings.Cut(counters, "}")
	if !ok || len(name.FindAllString(counters, -1)) == 0 {
		t.Fatal("sramdbench/trace.go: no sramdCounters list")
	}
	for _, n := range name.FindAllString(counters, -1) {
		scraped[n] = "sramdbench/trace.go"
	}
	for n, src := range scraped {
		prefix := strings.TrimSuffix(n, "_") + "_"
		found := false
		for _, g := range golden {
			found = found || strings.HasPrefix(g, prefix)
		}
		if !found {
			t.Errorf("%s scrapes %s, which no /metrics family provides", src, n)
		}
	}
}

// exposition reduces a /metrics body to its shape: HELP and TYPE lines
// and series names with their labels, values stripped, lines sorted.
func exposition(body string) string {
	var lines []string
	for _, l := range strings.Split(strings.TrimSpace(body), "\n") {
		if !strings.HasPrefix(l, "#") {
			l = l[:strings.LastIndexByte(l, ' ')]
		}
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestEndToEndCharacJob exercises the acceptance path with the REAL
// runner: a tiny Table II job runs on the sweep engine, reports
// progress, lands in the store, and a byte-identical re-submission is a
// cache hit visible in /metrics.
func TestEndToEndCharacJob(t *testing.T) {
	srv, _, st := newTestServer(t, nil)

	const spec = `{"kind":"charac","charac":{"defects":[16],"caseStudies":[1]}}`
	w, first := doJSON(t, srv, "POST", "/v1/jobs", spec)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", w.Code, w.Body)
	}
	done := pollDone(t, srv, first.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if done.Total == 0 || done.Done != done.Total {
		t.Errorf("progress = %d/%d, want a completed nonzero sweep tally", done.Done, done.Total)
	}
	w, _ = doJSON(t, srv, "GET", "/v1/jobs/"+first.ID+"/result", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "Table II") {
		t.Fatalf("result: HTTP %d:\n%s", w.Code, w.Body)
	}
	result := append([]byte(nil), w.Body.Bytes()...)
	if st.Len() != 1 {
		t.Errorf("store holds %d entries, want 1", st.Len())
	}

	// Byte-identical re-submission (different spelling, same canonical
	// form): answered from the store, HTTP 200, no recompute.
	w, second := doJSON(t, srv, "POST", "/v1/jobs", `{"kind":"charac","charac":{"defects":[16,16],"caseStudies":[1]}}`)
	if w.Code != http.StatusOK || !second.Cached || second.State != jobs.StateDone {
		t.Fatalf("resubmit: HTTP %d cached=%v state=%s", w.Code, second.Cached, second.State)
	}
	w, _ = doJSON(t, srv, "GET", "/v1/jobs/"+second.ID+"/result", "")
	if !bytes.Equal(w.Body.Bytes(), result) {
		t.Error("cached result bytes differ from the computed ones")
	}

	w, _ = doJSON(t, srv, "GET", "/metrics", "")
	if body := w.Body.String(); !strings.Contains(body, "sramd_cache_hits_total 1") {
		t.Errorf("cache hit not visible in metrics:\n%s", body)
	}
}

// TestEndToEndDiagJob runs a real (reduced) fault-dictionary build
// through the HTTP API: the job bytes must be the versioned dictionary
// artifact, identical to what diag.Build encodes (and therefore to
// `diagnose build -o -`), and an equivalent re-submission must be served
// from the store.
func TestEndToEndDiagJob(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)

	const spec = `{"kind":"diag","diag":{"defects":[16,12],"caseStudies":[1],"decades":[100000],"baseOnly":true}}`
	w, first := doJSON(t, srv, "POST", "/v1/jobs", spec)
	if w.Code != http.StatusAccepted || first.Kind != jobs.KindDiag {
		t.Fatalf("submit: HTTP %d kind=%s: %s", w.Code, first.Kind, w.Body)
	}
	done := pollDone(t, srv, first.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	w, _ = doJSON(t, srv, "GET", "/v1/jobs/"+first.ID+"/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("result: HTTP %d:\n%s", w.Code, w.Body)
	}
	result := append([]byte(nil), w.Body.Bytes()...)

	// The artifact decodes and covers the requested grid.
	d, err := diag.Decode(result)
	if err != nil {
		t.Fatalf("job bytes are not a dictionary: %v", err)
	}
	if len(d.Entries) == 0 || len(d.Extra) != 0 {
		t.Errorf("dictionary: %d entries, %d extra conds (want >0, 0)", len(d.Entries), len(d.Extra))
	}

	// Byte-identity with the direct runner (the CLI's code path).
	direct, err := jobs.Run(context.Background(), jobs.Spec{Kind: jobs.KindDiag, Diag: &jobs.DiagSpec{
		Defects: []int{12, 16}, CaseStudies: []int{1}, Decades: []float64{1e5}, BaseOnly: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result, direct) {
		t.Error("served dictionary differs from the direct runner's bytes")
	}

	// Equivalent spelling (duplicate defect, unsorted) is a cache hit.
	w, second := doJSON(t, srv, "POST", "/v1/jobs", `{"kind":"diag","diag":{"defects":[16,12,16],"caseStudies":[1],"decades":[100000],"baseOnly":true}}`)
	if w.Code != http.StatusOK || !second.Cached || second.State != jobs.StateDone {
		t.Fatalf("resubmit: HTTP %d cached=%v state=%s", w.Code, second.Cached, second.State)
	}
	w, _ = doJSON(t, srv, "GET", "/v1/jobs/"+second.ID+"/result", "")
	if !bytes.Equal(w.Body.Bytes(), result) {
		t.Error("cached dictionary bytes differ from the computed ones")
	}
}
