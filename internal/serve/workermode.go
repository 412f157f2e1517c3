package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/artifact"
)

// Worker mode: N rcad processes share one artifact store and drain a
// file-based job queue under it (pkggen-style disposable workers over
// content-addressed intermediates). Any daemon can enqueue (POST
// /v1/queue); every worker claims jobs via lock-file leases, preferring
// jobs whose buildKey rendezvous-hashes to it — so scenarios sharing a
// build land on the worker whose in-process caches are already hot —
// and stealing other workers' backlog when idle. Results are published
// as done markers AND as outcome artifacts, so any process on the
// store (worker or not) serves them warm.

// ErrNoArtifactStore rejects queue operations on a server without a
// configured artifact store.
var ErrNoArtifactStore = errors.New("serve: queue mode requires an artifact store (-store)")

// queueResult is the done-marker payload for a queued job.
type queueResult struct {
	Fingerprint string `json:"fingerprint"`
	State       State  `json:"state"`
	Error       string `json:"error,omitempty"`
}

// jobQueue lazily opens the store's shared queue; a memory-only
// store has none (ErrNoArtifactStore).
func (s *Server) jobQueue() (*artifact.Queue, error) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.q == nil {
		q, err := s.artifacts.Queue()
		if errors.Is(err, artifact.ErrMemoryOnly) {
			return nil, ErrNoArtifactStore
		}
		if err != nil {
			return nil, err
		}
		// One -max-attempts budget bounds both a flight's executions
		// and a job's claims (crash loops).
		q.MaxAttempts = s.maxAttempts
		s.q = q
	}
	return s.q, nil
}

// queueEnvelope distinguishes queue payload kinds. A plain scenario
// document is the historical wire format; search requests travel
// kind-tagged as {"search": {...}} so old and new payloads coexist in
// one queue file set.
type queueEnvelope struct {
	Search json.RawMessage `json:"search"`
}

// Enqueue validates a queue payload — a plain scenario document or a
// kind-tagged {"search": {...}} request — and adds it to the shared
// queue, deduplicated by content. It returns the job's queue id and
// its buildKey affinity hash (scenarios and searches over the same
// base build land on the same warm worker).
func (s *Server) Enqueue(body []byte) (id, affinity string, err error) {
	var env queueEnvelope
	if jsonErr := json.Unmarshal(body, &env); jsonErr == nil && len(env.Search) > 0 {
		return s.enqueueSearch(env.Search)
	}
	sc, err := rca.ScenarioFromJSON(body)
	if err != nil {
		return "", "", err
	}
	keys, err := s.session.Keys(sc)
	if err != nil {
		return "", "", err
	}
	q, err := s.jobQueue()
	if err != nil {
		return "", "", err
	}
	kv := hashKeys(keys)
	if err := q.Enqueue(kv.Scenario, kv.Build, body); err != nil {
		return "", "", err
	}
	return kv.Scenario, kv.Build, nil
}

// enqueueSearch validates a search request and adds it, kind-tagged,
// to the shared queue. The queue id is the hash of the canonical
// request JSON (identical searches deduplicate); affinity follows the
// base scenario's buildKey so the worker with the hot build claims it.
func (s *Server) enqueueSearch(raw json.RawMessage) (id, affinity string, err error) {
	req, err := rca.SearchRequestFromJSON(raw)
	if err != nil {
		return "", "", err
	}
	base := req.Base
	if base == nil {
		base = rca.NewScenario("base", rca.ScenarioOptions{})
	}
	keys, err := s.session.Keys(base)
	if err != nil {
		return "", "", err
	}
	canonical, err := rca.SearchRequestToJSON(req)
	if err != nil {
		return "", "", err
	}
	q, err := s.jobQueue()
	if err != nil {
		return "", "", err
	}
	body, err := json.Marshal(queueEnvelope{Search: canonical})
	if err != nil {
		return "", "", err
	}
	id, affinity = hashKey("search|"+string(canonical)), hashKey(keys.Build)
	if err := q.Enqueue(id, affinity, body); err != nil {
		return "", "", err
	}
	return id, affinity, nil
}

// ServeQueue drains the store's shared queue until ctx is done: claim
// the best job (own buildKey affinity first, then steal), run it
// through the normal submit path — so in-flight dedup, the outcome
// store and the cross-process scenario lease all apply — and publish
// the result marker. Idle polls are spaced by idle (default 200ms).
func (s *Server) ServeQueue(ctx context.Context, workerID string, peers []string, idle time.Duration) error {
	q, err := s.jobQueue()
	if err != nil {
		return err
	}
	if idle <= 0 {
		idle = 200 * time.Millisecond
	}
	if len(peers) == 0 {
		peers = []string{workerID}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		claimed, ok, err := q.Claim(workerID, peers)
		if err != nil {
			return err
		}
		if !ok {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(idle):
			}
			continue
		}
		if s.runQueued(ctx, claimed) {
			// Handed back un-run, its attempt refunded: wait before
			// claiming again rather than spin on a job this worker
			// cannot start yet.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(idle):
			}
		}
	}
}

// runQueued executes one claimed queue job through the submit path and
// reports whether it released the job back to the queue un-finished.
func (s *Server) runQueued(ctx context.Context, c *artifact.Claimed) (released bool) {
	finish := func(res queueResult) bool {
		data, err := json.Marshal(res)
		if err != nil {
			c.Release()
			return true
		}
		_ = c.Done(data)
		return false
	}
	var env queueEnvelope
	if err := json.Unmarshal(c.Payload, &env); err == nil && len(env.Search) > 0 {
		return s.runQueuedSearch(ctx, c, env.Search, finish)
	}
	sc, err := rca.ScenarioFromJSON(c.Payload)
	if err != nil {
		// Malformed payloads never run: dead-letter them, retrying
		// cannot fix the bytes.
		_ = c.Fail(fmt.Sprintf("bad scenario: %v", err), 0)
		return false
	}
	j, err := s.submit(sc)
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
		// Transient local saturation/shutdown: back into the queue for
		// this or another worker.
		c.Release()
		return true
	}
	if err != nil {
		// Planner rejection (conflicting injections, unknown parameter):
		// permanent, straight to the dead-letter directory.
		_ = c.Fail(err.Error(), 0)
		return false
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		j.cancel()
		c.Release()
		return true
	}
	state, _, _, _, jerr := j.snapshot()
	res := queueResult{Fingerprint: j.keys.Scenario, State: state}
	if jerr != nil {
		res.Error = jerr.Error()
	}
	if state == StateCanceled {
		// Canceled by shutdown, not by a client: leave it for a
		// surviving worker.
		c.Release()
		return true
	}
	if state == StateFailed {
		// The flight already retried what was transient, so the job
		// goes to queue/failed at once, charged the flight's
		// executions; GET /v1/jobs/{id} surfaces it as terminal.
		_ = c.Fail(res.Error, j.fl.executions)
		return false
	}
	return finish(res)
}

// runQueuedSearch executes one claimed kind-tagged search through the
// normal startSearch path, so the node-evaluation artifacts and the
// shared-store incumbent bounds it publishes are visible to every
// worker immediately.
func (s *Server) runQueuedSearch(ctx context.Context, c *artifact.Claimed, raw json.RawMessage, finish func(queueResult) bool) (released bool) {
	req, err := rca.SearchRequestFromJSON(raw)
	if err != nil {
		_ = c.Fail(fmt.Sprintf("bad search request: %v", err), 0)
		return false
	}
	j, err := s.startSearch(req)
	if errors.Is(err, ErrClosed) {
		c.Release()
		return true
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		j.abort()
		c.Release()
		return true
	}
	j.mu.Lock()
	state, jerr := j.state, j.err
	j.mu.Unlock()
	if state == StateCanceled {
		// Shutdown, not a client decision: leave it for a survivor.
		c.Release()
		return true
	}
	res := queueResult{Fingerprint: c.ID, State: state}
	if jerr != nil {
		res.Error = jerr.Error()
	}
	if state == StateFailed {
		// A search runs once per claim; its failure is final.
		_ = c.Fail(res.Error, 1)
		return false
	}
	return finish(res)
}

// failedJSON is the wire rendering of a dead-letter record.
type failedJSON struct {
	Error    string    `json:"error"`
	Attempts int       `json:"attempts"`
	At       time.Time `json:"at"`
}

// queueState answers GET /v1/queue/{id}. Done reports a terminal
// state: completed with a result, or dead-lettered with a structured
// failure record.
type queueState struct {
	ID       string       `json:"id"`
	Done     bool         `json:"done"`
	Attempts int          `json:"attempts,omitempty"`
	Result   *queueResult `json:"result,omitempty"`
	Failed   *failedJSON  `json:"failed,omitempty"`
}

// queueStatus reports a queued job's completion state and result.
func (s *Server) queueStatus(id string) (queueState, error) {
	q, err := s.jobQueue()
	if err != nil {
		return queueState{}, err
	}
	st := queueState{ID: id, Attempts: q.Attempts(id)}
	if data, ok := q.Result(id); ok {
		st.Done = true
		var res queueResult
		if err := json.Unmarshal(data, &res); err == nil {
			st.Result = &res
		}
		return st, nil
	}
	if fj, ok := q.Failed(id); ok {
		st.Done = true
		st.Attempts = fj.Attempts
		st.Failed = &failedJSON{Error: fj.Error, Attempts: fj.Attempts, At: fj.At}
	}
	return st, nil
}
