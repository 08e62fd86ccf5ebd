// Package server exposes the jobs subsystem as a JSON HTTP API — the
// serving layer of cmd/sramd:
//
//	POST   /v1/jobs             submit a job spec (202; 200 on cache hit)
//	POST   /v1/batch            NDJSON specs in, streamed results out
//	GET    /v1/jobs             list job records
//	GET    /v1/jobs/{id}        poll status and progress
//	GET    /v1/jobs/{id}/result fetch the result bytes (CLI-identical)
//	DELETE /v1/jobs/{id}        cancel an active job / forget a finished one
//	GET    /v1/results/{key}    serve a stored result by content address
//	POST   /v1/diagnose         NDJSON signatures in, streamed diagnoses out
//	GET    /v1/diagnose         loaded-dictionary info
//	GET    /v1/load             queue pressure (for coordinators/monitors)
//	GET    /healthz             liveness probe
//	GET    /metrics             Prometheus-text counters and histograms
//
// Results are exactly the bytes the CLI tools print, so `curl .../result`
// is interchangeable with running defectchar/drv/flow locally.
package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"sramtest/internal/jobs"
	"sramtest/internal/metrics"
	"sramtest/internal/store"
)

// maxSpecBytes bounds a submitted spec; real specs are tiny.
const maxSpecBytes = 1 << 20

// Server routes the sramd HTTP API onto a job manager and its store.
type Server struct {
	mgr *jobs.Manager
	st  *store.Store // may be nil (no caching)
	mux *http.ServeMux

	// BatchInflight bounds concurrently executing specs per /v1/batch
	// request; intake beyond it waits (backpressure). <= 0 selects the
	// default of 16. Set before serving.
	BatchInflight int

	// Diag, when non-nil, serves the streaming POST /v1/diagnose
	// endpoint; DiagInfo describes it on GET /v1/diagnose. Set before
	// serving (sramd -diag-dict).
	Diag     Diagnoser
	DiagInfo DiagInfo
}

// New builds the API handler around mgr; st (the manager's store, may be
// nil) is consulted for metrics and serves /v1/results/{key}.
func New(mgr *jobs.Manager, st *store.Store) *Server {
	s := &Server{mgr: mgr, st: st, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResultByKey)
	s.mux.HandleFunc("POST /v1/diagnose", s.handleDiagnose)
	s.mux.HandleFunc("GET /v1/diagnose", s.handleDiagnoseInfo)
	s.mux.HandleFunc("GET /v1/load", s.handleLoad)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is the JSON shape of every non-2xx response.
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

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "malformed spec: "+err.Error())
		return
	}
	st, err := s.mgr.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrBadSpec):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, jobs.ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
	case st.Cached:
		writeJSON(w, http.StatusOK, st) // cache hit: already done
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, st, err := s.mgr.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	switch st.State {
	case jobs.StateDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(res)
	case jobs.StateFailed:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: st.Error, State: string(st.State)})
	case jobs.StateCanceled:
		writeJSON(w, http.StatusGone, errorBody{Error: "job canceled", State: string(st.State)})
	default: // queued or running: not ready yet
		writeJSON(w, http.StatusConflict, errorBody{Error: "job not finished", State: string(st.State)})
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleMetrics writes the values this server's manager and store own,
// then every family the counting packages registered.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.mgr.Stats()
	mw := metrics.NewWriter(w)
	mw.Family("sramd_jobs", "Current job records by state.", "gauge")
	mw.Sample("sramd_jobs", st.Queued, "state", "queued")
	mw.Sample("sramd_jobs", st.Running, "state", "running")
	mw.Sample("sramd_jobs", st.Done, "state", "done")
	mw.Sample("sramd_jobs", st.Failed, "state", "failed")
	mw.Sample("sramd_jobs", st.Canceled, "state", "canceled")
	mw.Counter("sramd_cache_hits_total", "Submissions answered from the result store.", st.CacheHits)
	mw.Counter("sramd_cache_misses_total", "Submissions that had to compute.", st.CacheMisses)
	ratio := 0.0
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		ratio = float64(st.CacheHits) / float64(lookups)
	}
	mw.Gauge("sramd_cache_hit_ratio", "Hits over lookups since start.", ratio)
	if s.st != nil {
		_, _, evictions := s.st.Stats()
		mw.Gauge("sramd_store_entries", "Entries currently stored.", s.st.Len())
		mw.Counter("sramd_store_evictions_total", "LRU evictions since start.", evictions)
	}
	mw.Counter("sramd_sweep_tasks_done_total", "Sweep-engine tasks completed across all jobs.", st.TasksDone)
	mw.Counter("sramd_sweep_tasks_total", "Sweep-engine tasks scheduled across all jobs.", st.TasksTotal)
	mw.Histogram("sramd_job_duration_seconds", "Job execution latency.", st.Duration)
	mw.Registered()
}
