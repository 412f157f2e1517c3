package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fault"
)

// maxScenarioBytes bounds a POST /v1/jobs body.
const maxScenarioBytes = 1 << 20

// jobJSON is the wire rendering of a job.
type jobJSON struct {
	ID          string       `json:"id"`
	Name        string       `json:"name"`
	Fingerprint string       `json:"fingerprint"`
	Keys        keyView      `json:"keys"`
	State       State        `json:"state"`
	Stage       rca.Stage    `json:"stage,omitempty"`
	Events      []StageEvent `json:"events,omitempty"`
	Outcome     *Outcome     `json:"outcome,omitempty"`
	Error       string       `json:"error,omitempty"`
	Attempts    int          `json:"attempts,omitempty"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs                  submit a scenario (wire JSON body);
//	                                 ?wait=1 blocks until the job ends
//	                                 and ties the job to the request —
//	                                 disconnecting cancels it
//	GET    /v1/jobs/{id}             job state + staged progress;
//	                                 ?wait=1 blocks (without adopting)
//	DELETE /v1/jobs/{id}             cancel a job (shared work survives
//	                                 while other subscribers remain)
//	GET    /v1/outcomes/{fingerprint} completed outcome from the store
//	POST   /v1/queue                 enqueue a scenario on the shared
//	                                 artifact-store queue (worker mode);
//	                                 503 without a -store
//	GET    /v1/queue/{id}            queued job completion + result
//	POST   /v1/searches              start a branch-and-bound scenario
//	                                 search (search request JSON body);
//	                                 ?wait=1 blocks until it ends and
//	                                 ties the search to the request —
//	                                 disconnecting aborts it
//	GET    /v1/searches/{id}         search state, progress counters,
//	                                 retained events, and result;
//	                                 ?wait=1 blocks (without adopting)
//	GET    /v1/table1                the §6.5 selective-FMA study
//	GET    /healthz                  liveness
//	GET    /metrics                  Prometheus text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/outcomes/{fingerprint}", s.handleOutcome)
	mux.HandleFunc("POST /v1/queue", s.handleEnqueue)
	mux.HandleFunc("GET /v1/queue/{id}", s.handleQueueStatus)
	mux.HandleFunc("POST /v1/searches", s.handleSearchSubmit)
	mux.HandleFunc("GET /v1/searches/{id}", s.handleSearch)
	mux.HandleFunc("GET /v1/table1", s.handleTable1)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func renderJob(j *job) jobJSON {
	state, stage, events, out, err := j.snapshot()
	jj := jobJSON{
		ID:          j.id,
		Name:        j.name,
		Fingerprint: j.keys.Scenario,
		Keys:        j.keys,
		State:       state,
		Stage:       stage,
		Events:      events,
		Outcome:     out,
	}
	if err != nil {
		jj.Error = err.Error()
	}
	return jj
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxScenarioBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxScenarioBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "scenario body over %d bytes", maxScenarioBytes)
		return
	}
	sc, err := rca.ScenarioFromJSON(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.submit(sc)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", s.retryAfterSecs())
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		// Scenario rejected by the planner (conflicting injections,
		// unknown subprogram, unknown parameter).
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if !boolParam(r, "wait") {
		writeJSON(w, http.StatusAccepted, renderJob(j))
		return
	}
	// A waiting submitter owns its job: disconnecting cancels it (and
	// aborts the shared execution only if no other job subscribes).
	select {
	case <-j.done:
		writeJSON(w, http.StatusOK, renderJob(j))
	case <-r.Context().Done():
		j.cancel()
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		// Not in the in-process registry: a dead-lettered queue job is
		// still addressable here, surfacing as a terminal failed job
		// with its structured error payload.
		if fj, found := s.deadLettered(r.PathValue("id")); found {
			writeJSON(w, http.StatusOK, jobJSON{
				ID:          fj.ID,
				Fingerprint: fj.ID,
				State:       StateFailed,
				Error:       fj.Error,
				Attempts:    fj.Attempts,
			})
			return
		}
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if boolParam(r, "wait") {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return // observer disconnect never cancels the job
		}
	}
	writeJSON(w, http.StatusOK, renderJob(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, renderJob(j))
}

func (s *Server) handleOutcome(w http.ResponseWriter, r *http.Request) {
	out, ok := s.storedOutcome(r.PathValue("fingerprint"))
	if !ok {
		writeError(w, http.StatusNotFound, "no stored outcome for this fingerprint")
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// queuedJSON acknowledges a queue submission.
type queuedJSON struct {
	ID       string `json:"id"`
	Affinity string `json:"affinity"`
}

func (s *Server) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxScenarioBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxScenarioBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "scenario body over %d bytes", maxScenarioBytes)
		return
	}
	id, affinity, err := s.Enqueue(body)
	switch {
	case errors.Is(err, ErrNoArtifactStore):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, queuedJSON{ID: id, Affinity: affinity})
}

func (s *Server) handleQueueStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.queueStatus(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSearchSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxScenarioBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxScenarioBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "search body over %d bytes", maxScenarioBytes)
		return
	}
	req, err := rca.SearchRequestFromJSON(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.startSearch(req)
	if errors.Is(err, ErrClosed) {
		w.Header().Set("Retry-After", s.retryAfterSecs())
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}

	if !boolParam(r, "wait") {
		writeJSON(w, http.StatusAccepted, renderSearch(j))
		return
	}
	// A waiting submitter owns its search: disconnecting aborts it.
	select {
	case <-j.done:
		writeJSON(w, http.StatusOK, renderSearch(j))
	case <-r.Context().Done():
		j.abort()
	}
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	j, ok := s.searchByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such search")
		return
	}
	if boolParam(r, "wait") {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return // observer disconnect never cancels the search
		}
	}
	writeJSON(w, http.StatusOK, renderSearch(j))
}

// table1JSON is the wire rendering of the selective-FMA study.
type table1JSON struct {
	Rows []rca.Table1Row `json:"rows"`
	Text string          `json:"text"`
}

func (s *Server) handleTable1(w http.ResponseWriter, r *http.Request) {
	var setup rca.Table1Setup
	var err error
	if setup.EnsembleSize, err = intParam(r, "ensemble", 0); err == nil {
		if setup.ExpSize, err = intParam(r, "runs", 0); err == nil {
			if setup.TopK, err = intParam(r, "topk", 0); err == nil {
				setup.RandomSamples, err = intParam(r, "random", 0)
			}
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := fmt.Sprintf("e=%d;r=%d;k=%d;s=%d", setup.EnsembleSize, setup.ExpSize, setup.TopK, setup.RandomSamples)
	fl, err := s.table1Flight(key, setup)
	if err != nil {
		w.Header().Set("Retry-After", s.retryAfterSecs())
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	select {
	case <-r.Context().Done():
		s.table1Leave(fl)
		return // client gone; the study survives while others wait
	case <-fl.done:
	}
	if fl.err != nil {
		if errors.Is(fl.err, rca.ErrCanceled) {
			// Only reachable at server shutdown: a live waiter never
			// lets the flight's own refcount hit zero.
			writeError(w, http.StatusServiceUnavailable, "%v", fl.err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", fl.err)
		return
	}
	writeJSON(w, http.StatusOK, table1JSON{Rows: fl.rows, Text: rca.FormatTable1(fl.rows)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	// degraded=true means the artifact store's circuit breaker is open
	// (disk bypassed, in-memory pass-through serving): alive and
	// answering, but without durability until the disk recovers.
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true, "degraded": s.artifacts.Degraded()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var ss sessionStats
	ss.CompileHits, ss.CompileMisses = s.session.CompileCacheStats()
	ss.ProgramRebinds = s.session.ProgramRebinds()
	ss.ParseShares = corpus.SubprogramShares()
	ss.MetagraphShares = s.session.MetagraphShares()
	ss.LassoFits, ss.LassoIters = s.session.LassoStats()
	ss.MemoHits, ss.MemoMisses = s.session.RefineMemoStats()
	rs := robustStats{FaultInjected: fault.InjectedTotal()}
	if q, err := s.jobQueue(); err == nil {
		rs.DeadLettered = q.FailedCount()
	}
	s.m.write(w, len(s.queue), s.inflight(), ss, s.artifacts.Stats(), rs)
}

// deadLettered looks an id up in the shared queue's dead-letter
// directory (memory-only store or no record: not found).
func (s *Server) deadLettered(id string) (*artifact.FailedJob, bool) {
	q, err := s.jobQueue()
	if err != nil {
		return nil, false
	}
	return q.Failed(id)
}

// retryAfterSecs scales the 503 Retry-After hint with the backlog:
// an empty queue suggests 1s, a deep one (relative to the worker
// pool) proportionally more, capped at 60s.
func (s *Server) retryAfterSecs() string {
	workers := s.workers
	if workers < 1 {
		workers = 1
	}
	secs := 1 + len(s.queue)/workers
	if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(secs)
}

// boolParam reads a truthy query parameter ("1", "true", "yes").
func boolParam(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// intParam reads a non-negative integer query parameter.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s=%q (want a non-negative integer)", name, v)
	}
	return n, nil
}
