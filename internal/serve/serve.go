// Package serve implements rcad, the concurrent root-cause-analysis
// service: one long-lived rca.Session per corpus configuration behind
// an HTTP/JSON API. The paper's pipeline is expensive and most of it
// is shared — corpus builds, the control-ensemble ECT fingerprint,
// compiled metagraphs — so the service's job is to make N clients pay
// for it at most once:
//
//   - a bounded job queue feeds a fixed worker pool; submissions
//     beyond the bound are rejected with 503 (backpressure, not
//     unbounded memory);
//   - submissions are deduplicated in flight (singleflight) on the
//     Session's layered scenario fingerprints: clients submitting an
//     identical scenario while one is queued or running subscribe to
//     the same execution;
//   - completed outcomes land in the artifact store keyed by the same
//     fingerprint (on disk with -store, in its bounded memory tier
//     without), so repeat submissions don't even queue;
//   - every job cancels independently (DELETE, or a waiting client
//     disconnecting). The shared execution is aborted only when its
//     last subscriber leaves.
//
// Determinism is untouched: the service renders results with
// rca.FormatOutcome over the same Session API the CLI uses, so the
// bytes a client receives are identical to an in-process run.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/fault"
)

// Config sizes a Server.
type Config struct {
	// Session is the compile-once pipeline the service fronts
	// (required). Its caches are the second deduplication layer behind
	// the in-flight singleflight.
	Session *rca.Session
	// QueueSize bounds executions waiting for a worker (default 64).
	// Submissions beyond it are rejected with ErrQueueFull.
	QueueSize int
	// Workers is the number of concurrent pipeline executions
	// (default 2; each execution parallelizes internally via the
	// session's WithParallelism pool).
	Workers int
	// RunHook, when set, is called with the scenario fingerprint once
	// per actual underlying pipeline execution — after dedup, before
	// the run. Tests use it to count executions; it must return
	// quickly unless the test wants to hold the execution window open.
	RunHook func(fingerprint string)
	// JobsCap bounds the job registry (default 4096): once exceeded,
	// the oldest *terminal* jobs are forgotten (their outcomes remain
	// reachable by fingerprint through the store). Live jobs are never
	// evicted.
	JobsCap int
	// Artifacts is the outcome cache behind the in-flight dedup. When
	// set, completed outcomes are persisted under their scenario
	// fingerprint (so a restarted daemon serves them without
	// re-running the pipeline), executions take a cross-process
	// scenario lease (so N daemons sharing the store never run the
	// same investigation concurrently), and a session built
	// WithArtifacts on the same store shares its search verdicts and
	// incumbents. When nil, New opens a memory-only store: outcomes
	// live in its bounded memory tier and the shared queue is
	// unavailable.
	Artifacts *rca.ArtifactStore
	// MaxAttempts is the per-job execution budget (default 3): a
	// flight whose failure is transient — an injected fault or a job
	// deadline — retries with exponential backoff up to this many
	// executions. The shared work queue dead-letters a job whose
	// claims reach the same budget without a worker reporting back
	// (a worker that crashes mid-job).
	MaxAttempts int
	// JobTimeout bounds one pipeline execution attempt (0 = none). A
	// timed-out attempt counts as transient and retries under the
	// MaxAttempts budget.
	JobTimeout time.Duration
	// RetryBase is the first retry's backoff delay (default
	// DefaultRetryBase), doubling per attempt up to
	// DefaultBackoffMax, plus a deterministic per-fingerprint jitter.
	RetryBase time.Duration
}

// Retry schedule defaults: the first retry waits DefaultRetryBase
// unless Config.RetryBase says otherwise, and the doubling stops at
// DefaultBackoffMax.
const (
	DefaultRetryBase  = 250 * time.Millisecond
	DefaultBackoffMax = 30 * time.Second
)

// ErrJobTimeout marks an execution attempt aborted by Config.JobTimeout
// (transient: it retries under the attempt budget).
var ErrJobTimeout = errors.New("serve: job deadline exceeded")

// Typed submission failures the HTTP layer maps to status codes.
var (
	// ErrQueueFull rejects a submission when the job queue is at
	// capacity (HTTP 503).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClosed rejects a submission during shutdown (HTTP 503).
	ErrClosed = errors.New("serve: server closed")
)

// keyView is the hashed form of a scenario's layered fingerprints.
// Raw keys embed the whole corpus configuration and injection IDs;
// hashes make them URL- and log-safe while preserving the sharing
// structure (equal hash ⇔ equal layer).
type keyView struct {
	Source   string `json:"source"`
	Build    string `json:"build"`
	Scenario string `json:"scenario"`
}

func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

func hashKeys(k rca.ScenarioKeys) keyView {
	return keyView{Source: hashKey(k.Source), Build: hashKey(k.Build), Scenario: hashKey(k.Scenario)}
}

// Server is the RCA service: job registry, in-flight dedup table,
// bounded queue, worker pool and outcome store around one Session.
type Server struct {
	session *rca.Session
	hook    func(string)
	queue   chan *flight
	base    context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	m       metrics

	// Outcome store and scenario leases: Config.Artifacts, or a
	// memory-only store. Never nil.
	artifacts *rca.ArtifactStore

	// Shared work queue (worker mode), opened lazily on first use.
	qmu sync.Mutex
	q   *artifact.Queue

	jobsCap     int
	workers     int
	maxAttempts int
	jobTimeout  time.Duration
	retryBase   time.Duration

	mu       sync.Mutex
	closed   bool
	nextID   int64
	jobs     map[string]*job    // job id → job
	jobOrder []string           // insertion order, for registry pruning
	flights  map[string]*flight // scenario fingerprint hash → in-flight execution

	// Table 1 requests go through the same singleflight discipline as
	// jobs: identical concurrent requests share one execution and the
	// semaphore serializes the heavy study instead of letting N
	// handler goroutines bypass the worker pool.
	t1mu  sync.Mutex
	t1    map[string]*t1flight
	t1sem chan struct{}

	// Scenario searches: bounded registry + one-at-a-time semaphore
	// (the engine parallelizes internally; serializing whole searches
	// keeps them from starving the job worker pool).
	nextSearchID int64
	smu          sync.Mutex
	searches     map[string]*searchJob
	searchOrder  []string
	searchSem    chan struct{}
}

// t1flight is one deduplicated Table 1 execution; waiters are
// refcounted like job flights, so the study is aborted only when the
// last interested client disconnects.
type t1flight struct {
	ctx    context.Context
	cancel context.CancelFunc
	subs   int
	done   chan struct{}
	rows   []rca.Table1Row
	err    error
}

// New builds a Server over cfg.Session and starts its worker pool.
// Call Close to stop it.
func New(cfg Config) *Server {
	if cfg.Session == nil {
		panic("serve: Config.Session is required")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.JobsCap <= 0 {
		cfg.JobsCap = 4096
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = artifact.DefaultMaxAttempts
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.Artifacts == nil {
		// Open("") touches no filesystem and cannot fail.
		cfg.Artifacts, _ = artifact.Open("")
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		session:     cfg.Session,
		hook:        cfg.RunHook,
		queue:       make(chan *flight, cfg.QueueSize),
		base:        base,
		stop:        stop,
		artifacts:   cfg.Artifacts,
		jobsCap:     cfg.JobsCap,
		workers:     cfg.Workers,
		maxAttempts: cfg.MaxAttempts,
		jobTimeout:  cfg.JobTimeout,
		retryBase:   cfg.RetryBase,
		jobs:        make(map[string]*job),
		flights:     make(map[string]*flight),
		t1:          make(map[string]*t1flight),
		t1sem:       make(chan struct{}, 1),
		searches:    make(map[string]*searchJob),
		searchSem:   make(chan struct{}, 1),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the worker pool, aborting in-flight executions; queued
// and running jobs finish canceled. Every completed outcome is already
// in the store (runFlight writes it before the flight finishes), so
// nothing is left to flush. Safe to call once.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// storedOutcome reads a completed outcome from the store. A blob that
// does not decode (one an older binary wrote) reads as a miss, so the
// investigation re-runs and its putOutcome replaces the blob.
func (s *Server) storedOutcome(key string) (*Outcome, bool) {
	var o Outcome
	if !s.artifacts.GetJSON(artifact.ClassOutcome, key, &o) {
		return nil, false
	}
	return &o, true
}

// putOutcome stores an outcome as its JSON. Put's error reports disk
// persistence only; a failed write is still served from the memory
// tier.
func (s *Server) putOutcome(o *Outcome) {
	_ = s.artifacts.PutJSON(artifact.ClassOutcome, o.Fingerprint, o)
}

// submit registers a job for a scenario: served from the outcome
// store, attached to an identical in-flight execution, or enqueued as
// a new one. It returns ErrQueueFull/ErrClosed under backpressure.
func (s *Server) submit(sc rca.Scenario) (*job, error) {
	keys, err := s.session.Keys(sc)
	if err != nil {
		return nil, err
	}
	kv := hashKeys(keys)

	// The store read happens outside s.mu (it may be file I/O). A
	// submission that misses here while the flight is finishing still
	// runs nothing: the new flight re-reads the store under its lease.
	out, stored := s.storedOutcome(kv.Scenario)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.m.jobsRejected.Add(1)
		return nil, ErrClosed
	}

	// Whole-outcome sharing: a stored outcome completes the job
	// without queueing anything.
	if stored {
		j := newJob(s.newJobID(), sc.Name(), kv, nil, s)
		j.finish(StateDone, out, nil)
		s.registerJob(j)
		s.m.jobsSubmitted.Add(1)
		s.m.jobsFromStore.Add(1)
		s.m.jobsCompleted.Add(1)
		return j, nil
	}

	// In-flight dedup: identical scenarios share one execution. A
	// flight whose last subscriber already canceled is dead (its
	// context is canceled) even though a worker has not reaped it yet;
	// joining it would spuriously cancel the new job, so it is
	// replaced instead. subscribe re-checks under the flight's own
	// lock, closing the race with a concurrent last-subscriber cancel.
	if fl, ok := s.flights[kv.Scenario]; ok {
		j := newJob(s.newJobID(), sc.Name(), kv, fl, s)
		if fl.subscribe(j) {
			s.registerJob(j)
			s.m.jobsSubmitted.Add(1)
			s.m.jobsDeduped.Add(1)
			return j, nil
		}
	}

	// New execution — subject to the queue bound.
	fl := newFlight(s.base, kv.Scenario, sc)
	select {
	case s.queue <- fl:
	default:
		fl.cancel()
		s.m.jobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	s.flights[kv.Scenario] = fl
	j := newJob(s.newJobID(), sc.Name(), kv, fl, s)
	fl.subscribe(j)
	s.registerJob(j)
	s.m.jobsSubmitted.Add(1)
	return j, nil
}

func (s *Server) newJobID() string {
	s.nextID++
	return fmt.Sprintf("j-%06d", s.nextID)
}

// registerJob records a job (caller holds s.mu). Completed outcomes
// stay reachable by fingerprint through the store; only the per-job
// view ages out of the registry.
func (s *Server) registerJob(j *job) {
	s.jobOrder = register(s.jobs, s.jobOrder, j.id, j, s.jobsCap)
}

// register adds v to a bounded registry (m plus its insertion order)
// and returns the new order. Beyond limit, the oldest terminal entries
// are forgotten; live ones are never evicted.
func register[V interface{ isTerminal() bool }](m map[string]V, order []string, id string, v V, limit int) []string {
	m[id] = v
	order = append(order, id)
	if len(m) <= limit {
		return order
	}
	keep := make([]string, 0, len(m))
	for _, id := range order {
		old, ok := m[id]
		if !ok {
			continue
		}
		if len(m) > limit && old.isTerminal() {
			delete(m, id)
			continue
		}
		keep = append(keep, id)
	}
	return keep
}

// jobByID looks a job up in the registry.
func (s *Server) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// worker drains the queue until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case fl := <-s.queue:
			s.runFlight(fl)
		case <-s.base.Done():
			s.drain()
			return
		}
	}
}

// drain cancels whatever is still queued at shutdown (exactly one
// worker wins each flight; runFlight completes it as canceled).
func (s *Server) drain() {
	for {
		select {
		case fl := <-s.queue:
			s.runFlight(fl)
		default:
			return
		}
	}
}

// runFlight executes one deduplicated investigation. The flight's
// context — alive while any subscriber remains — drives cancellation;
// stage progress fans out to every subscribed job.
func (s *Server) runFlight(fl *flight) {
	if err := fl.ctx.Err(); err != nil {
		// Every subscriber canceled (or the server closed) while the
		// flight was still queued: nothing ran, nothing to store.
		s.m.flightsCanceled.Add(1)
		s.finishFlight(fl, nil, rca.ErrCanceled)
		return
	}

	// Cross-process singleflight: take the scenario's lease before
	// running. A peer daemon holding it is running the same
	// investigation — waiting, then re-checking the store, turns this
	// flight into a warm read instead of a duplicate execution. The
	// lease is released only after the outcome is stored.
	release, err := s.artifacts.Lock(fl.ctx, "scenario-"+fl.key)
	if err != nil {
		s.m.flightsCanceled.Add(1)
		s.finishFlight(fl, nil, rca.ErrCanceled)
		return
	}
	if out, ok := s.storedOutcome(fl.key); ok {
		release()
		s.m.jobsFromStore.Add(1)
		s.finishFlight(fl, out, nil)
		return
	}

	fl.start()
	// Execute with a bounded retry budget: failures classified as
	// transient — injected faults from the chaos plane, per-attempt
	// deadline hits — back off (exponential, deterministic jitter) and
	// re-run, as long as a subscriber is still interested. Anything
	// else (pipeline errors, client cancellation) surfaces immediately.
	// This loop is rcad's only retry: the shared queue dead-letters a
	// failure its worker reports, charging it fl.executions.
	var out *rca.Outcome
	for attempt := 1; ; attempt++ {
		out, err = s.runOnce(fl)
		fl.executions = attempt
		if err == nil || !transientErr(err) || attempt >= s.maxAttempts || fl.ctx.Err() != nil {
			break
		}
		s.m.jobRetries.Add(1)
		select {
		case <-time.After(s.retryDelay(fl.key, attempt)):
		case <-fl.ctx.Done():
		}
	}
	var o *Outcome
	if err == nil {
		o = &Outcome{
			Fingerprint: fl.key,
			Name:        out.Name,
			FailureRate: out.FailureRate,
			BugLocated:  out.BugLocated,
			Text:        rca.FormatOutcome(out),
			CompletedAt: time.Now().UTC(),
		}
		// The write completes before the lease is released and before
		// the flight leaves the dedup table, so a peer that wins the
		// next lease, or a submission that finds no flight, always
		// finds the outcome.
		s.putOutcome(o)
	}
	release()
	if errors.Is(err, rca.ErrCanceled) {
		s.m.flightsCanceled.Add(1)
	}
	s.finishFlight(fl, o, err)
}

// runOnce performs a single execution attempt of a flight under the
// per-attempt deadline (Config.JobTimeout) and the worker.exec fault
// point. A deadline hit is converted to ErrJobTimeout — distinguished
// from client cancellation by the flight context staying alive.
func (s *Server) runOnce(fl *flight) (*rca.Outcome, error) {
	runCtx, cancel := fl.ctx, func() {}
	if s.jobTimeout > 0 {
		runCtx, cancel = context.WithTimeout(fl.ctx, s.jobTimeout)
	}
	defer cancel()
	if err := fault.Hook(runCtx, fault.PointWorkerExec); err != nil {
		return nil, err
	}
	// A sleep-action fault may have consumed the whole deadline before
	// the pipeline even starts; classify that as a timeout, not a run.
	if fl.ctx.Err() == nil && runCtx.Err() != nil {
		return nil, fmt.Errorf("%w (%v budget)", ErrJobTimeout, s.jobTimeout)
	}
	s.m.executions.Add(1)
	if s.hook != nil {
		s.hook(fl.key)
	}
	ctx := rca.WithProgress(runCtx, fl.setStage)
	out, err := s.session.Run(ctx, fl.scenario)
	if err != nil && fl.ctx.Err() == nil && runCtx.Err() != nil {
		// The attempt's own deadline, not the client, killed the run.
		// %v (not %w) around the inner error keeps ErrCanceled out of
		// the chain so finishFlight reports failed, not canceled.
		err = fmt.Errorf("%w (%v budget): %v", ErrJobTimeout, s.jobTimeout, err)
	}
	return out, err
}

// transientErr classifies failures worth retrying: injected chaos
// faults and per-attempt deadline hits.
func transientErr(err error) bool {
	return fault.IsInjected(err) || errors.Is(err, ErrJobTimeout)
}

// retryDelay is the backoff before re-running a flight after its
// attempt-th execution failed (see backoff).
func (s *Server) retryDelay(key string, attempt int) time.Duration {
	return backoff(key, attempt, s.retryBase)
}

// backoff returns the delay before the retry that follows a key's
// attempt-th failed execution: base (which must be positive) doubled
// per attempt, capped at DefaultBackoffMax, plus a jitter in [0, base)
// that is a pure function of (key, attempt), so seeded chaos runs
// replay the same schedule.
func backoff(key string, attempt int, base time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < DefaultBackoffMax; i++ {
		d *= 2
	}
	if d > DefaultBackoffMax {
		d = DefaultBackoffMax
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte(strconv.Itoa(attempt)))
	return d + time.Duration(h.Sum64()%uint64(base))
}

// finishFlight publishes a flight's result: the flight leaves the
// dedup table (any outcome is already in the store, so a submission
// sees either the in-flight entry or the stored outcome, never a gap),
// then the remaining subscribers finish.
func (s *Server) finishFlight(fl *flight, out *Outcome, err error) {
	s.mu.Lock()
	// Identity check: a dead flight may already have been replaced in
	// the table by a fresh execution of the same scenario.
	if cur, ok := s.flights[fl.key]; ok && cur == fl {
		delete(s.flights, fl.key)
	}
	s.mu.Unlock()

	for _, j := range fl.take() {
		switch {
		case out != nil:
			if j.finish(StateDone, out, nil) {
				s.m.jobsCompleted.Add(1)
			}
		case errors.Is(err, rca.ErrCanceled):
			if j.finish(StateCanceled, nil, err) {
				s.m.jobsCanceled.Add(1)
			}
		default:
			if j.finish(StateFailed, nil, err) {
				s.m.jobsFailed.Add(1)
			}
		}
	}
}

// inflight counts flights queued or running.
func (s *Server) inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flights)
}

// table1Flight joins (or starts) the deduplicated execution for one
// parameter set. A dead flight — every waiter left, context canceled,
// goroutine not yet reaped — is replaced, not joined; the last-out
// cancel in table1Leave happens under t1mu, so the liveness check here
// is race-free.
func (s *Server) table1Flight(key string, setup rca.Table1Setup) (*t1flight, error) {
	s.t1mu.Lock()
	defer s.t1mu.Unlock()
	if fl, ok := s.t1[key]; ok && fl.ctx.Err() == nil {
		fl.subs++
		return fl, nil
	}
	// New execution: the shutdown check and the waitgroup registration
	// share s.mu with Close, so Close cannot observe a zero counter
	// between them (sync.WaitGroup forbids Add racing Wait).
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.wg.Add(1)
	s.mu.Unlock()
	ctx, cancel := context.WithCancel(s.base)
	fl := &t1flight{ctx: ctx, cancel: cancel, subs: 1, done: make(chan struct{})}
	s.t1[key] = fl
	go func() {
		defer s.wg.Done()
		select {
		case s.t1sem <- struct{}{}:
			fl.rows, fl.err = s.session.Table1(ctx, setup)
			<-s.t1sem
		case <-ctx.Done():
			fl.err = rca.ErrCanceled
		}
		s.t1mu.Lock()
		if cur, ok := s.t1[key]; ok && cur == fl {
			delete(s.t1, key)
		}
		s.t1mu.Unlock()
		close(fl.done)
	}()
	return fl, nil
}

// table1Leave drops one waiter; the last one out aborts the study
// (under t1mu, so a concurrent join cannot slip in between).
func (s *Server) table1Leave(fl *t1flight) {
	s.t1mu.Lock()
	defer s.t1mu.Unlock()
	fl.subs--
	if fl.subs == 0 {
		fl.cancel()
	}
}
