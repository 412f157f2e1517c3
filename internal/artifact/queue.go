package artifact

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/climate-rca/rca/internal/fault"
)

// Queue is a crash-tolerant work queue shared by every worker process
// pointed at one store directory — the pkggen-style scheduler shape:
// jobs are files, claims are lock-file leases, completion is a marker
// file, and a worker that dies mid-job just lets its lease go stale
// for another worker to steal.
//
// Layout under <store>/queue:
//
//	pending/<id>   job record (JSON Job: affinity key + body, framed)
//	leases/<id>.lock   held while a worker runs the job
//	done/<id>      completion marker (result bytes, framed)
//	attempts/<id>  claim bookkeeping (attempts charged)
//	failed/<id>    dead-letter record (JSON FailedJob, framed)
//
// Claim orders candidates by consistent-hash affinity: jobs whose
// affinity key rendezvous-hashes to this worker come first, so N
// workers partition the keyspace (same-buildKey jobs land on the same
// worker and share its hot in-process caches) while still stealing
// another worker's backlog when idle.
//
// The queue never retries a job a worker reports as failed: Fail
// dead-letters it at once, and retrying a transient failure is the
// worker's own business. What only the queue can see is a worker that
// never reports back. Attempts are therefore charged at claim time,
// not completion time, so a worker that crashes mid-job still burns
// an attempt — a poison pill that kills every worker it touches lands
// in the dead-letter directory after MaxAttempts claims instead of
// crash-looping the fleet forever.
type Queue struct {
	s   *Store
	dir string

	// MaxAttempts is the per-job claim budget before dead-lettering
	// (default DefaultMaxAttempts from Store.Queue).
	MaxAttempts int
}

// DefaultMaxAttempts is the claim budget installed by Store.Queue.
const DefaultMaxAttempts = 3

// ErrMemoryOnly rejects Queue on a memory-only store: the queue is
// shared through the store directory, and there is none.
var ErrMemoryOnly = errors.New("artifact: memory-only store has no queue")

// Queue opens the store's shared work queue.
func (s *Store) Queue() (*Queue, error) {
	if s.memoryOnly() {
		return nil, ErrMemoryOnly
	}
	q := &Queue{
		s:           s,
		dir:         filepath.Join(s.dir, "queue"),
		MaxAttempts: DefaultMaxAttempts,
	}
	for _, sub := range []string{"pending", "leases", "done", "attempts", "failed"} {
		if err := os.MkdirAll(filepath.Join(q.dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("artifact: open queue: %w", err)
		}
	}
	return q, nil
}

// Job is one queued unit of work. Its pending record is the JSON of
// Affinity and Payload; the id is the file name.
type Job struct {
	ID       string `json:"-"`
	Affinity string `json:"affinity"` // consistent-hash routing key (buildKey hash)
	Payload  []byte `json:"payload"`
}

// Claimed is a leased job; exactly one worker holds it at a time.
// Attempt is this claim's 1-based number (already charged against the
// budget).
type Claimed struct {
	Job
	Attempt int
	q       *Queue
	release func()
}

func jobID(id string) string {
	// IDs come from callers as fingerprint hashes; keep them path-safe
	// defensively.
	return filepath.Base(id)
}

// Enqueue adds a job if no job with the same id is pending or done —
// idempotent, so every worker (or a dispatcher) can enqueue the same
// catalog and the queue dedupes by id.
func (q *Queue) Enqueue(id, affinity string, payload []byte) error {
	id = jobID(id)
	if q.IsDone(id) {
		return nil
	}
	// Dead-lettered ids are terminal: re-enqueueing the same catalog
	// must not resurrect a poison pill.
	if _, failed := q.Failed(id); failed {
		return nil
	}
	path := filepath.Join(q.dir, "pending", id)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	raw, err := encodeRecord(Job{Affinity: affinity, Payload: payload})
	if err != nil {
		return err
	}
	return atomicWrite(path, raw)
}

// Claim leases the best available job for this worker: own-affinity
// jobs first (rendezvous hash of the affinity key over peers), then
// anyone's backlog. ok=false means the pending queue is empty (jobs
// leased by other workers are not available).
func (q *Queue) Claim(workerID string, peers []string) (*Claimed, bool, error) {
	names, err := q.records("pending")
	if err != nil {
		return nil, false, fmt.Errorf("artifact: claim: %w", err)
	}

	var own, others []string
	for _, id := range names {
		// A record that does not decode is claimable like any other;
		// whoever claims it dead-letters it below. One that cannot be
		// read (gone since ReadDir, or an I/O error) is skipped.
		job, raw, _ := q.readPending(id)
		if raw == nil {
			continue
		}
		if Owner(job.Affinity, peers) == workerID || len(peers) <= 1 {
			own = append(own, id)
		} else {
			others = append(others, id)
		}
	}
	for _, id := range append(own, others...) {
		release, ok := q.tryLease(id)
		if !ok {
			continue
		}
		job, raw, err := q.readPending(id)
		if raw == nil {
			release() // finished under a stale lease since ReadDir, or unreadable for now
			continue
		}
		if q.IsDone(id) {
			_ = os.Remove(filepath.Join(q.dir, "pending", id))
			release()
			continue
		}
		meta := q.readAttempts(id)
		if err != nil {
			// A record that does not decode can never run: dead-letter
			// it with its raw bytes, so it leaves pending for good.
			_ = q.deadLetter(id, raw, meta.Attempts, "unreadable pending record: "+err.Error())
			release()
			continue
		}
		// Charge the attempt under the lease. A failed job never
		// returns to pending and Release refunds its charge, so a job
		// already at its budget got here only through claims that
		// never reported back (crashes): dead-letter it rather than
		// run it again.
		if meta.Attempts >= q.MaxAttempts {
			_ = q.deadLetter(id, job.Payload, meta.Attempts,
				"attempt budget exhausted: no claim reported back (worker crashed mid-job)")
			release()
			continue
		}
		meta.Attempts++
		q.writeAttempts(id, meta)
		return &Claimed{
			Job:     job,
			Attempt: meta.Attempts,
			q:       q,
			release: release,
		}, true, nil
	}
	return nil, false, nil
}

// Pending reports how many jobs are queued (leased or not).
func (q *Queue) Pending() int {
	names, _ := q.records("pending")
	return len(names)
}

// records lists, sorted, the ids of the records in one queue
// directory. atomicWrite's staging files are not records: one may be
// empty or half written, and its writer is about to rename it.
func (q *Queue) records(sub string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(q.dir, sub))
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), stagingPrefix) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// IsDone reports whether the job has a completion marker.
func (q *Queue) IsDone(id string) bool {
	_, err := os.Stat(filepath.Join(q.dir, "done", jobID(id)))
	return err == nil
}

// Result returns a completed job's result bytes.
func (q *Queue) Result(id string) ([]byte, bool) {
	raw, err := os.ReadFile(filepath.Join(q.dir, "done", jobID(id)))
	if err != nil {
		return nil, false
	}
	payload, err := unframe(raw)
	if err != nil {
		return nil, false
	}
	return payload, true
}

// Done marks the claimed job complete with a result and removes it
// from the pending queue. The marker is written before the pending
// file is removed, so a crash between the two leaves a duplicate that
// every claimer skips, never a lost job.
func (c *Claimed) Done(result []byte) error {
	defer c.release()
	if err := fault.Hook(context.Background(), fault.PointQueueDone); err != nil {
		return err
	}
	if err := atomicWrite(filepath.Join(c.q.dir, "done", c.ID), frame(result)); err != nil {
		return err
	}
	// The attempts record is left in place: a completed job's attempt
	// count stays queryable (crash-recovery observability), and Enqueue
	// dedupes by the done marker so it can never re-charge.
	return os.Remove(filepath.Join(c.q.dir, "pending", c.ID))
}

// Release returns the job to the queue un-run (worker shutting down,
// or too busy to start it) and refunds the attempt charged at claim,
// so graceful shutdowns never use up a job's budget. A worker that
// crashes never calls Release, so its claims stay charged and crash
// loops stay bounded by MaxAttempts.
func (c *Claimed) Release() {
	defer c.release()
	c.q.writeAttempts(c.ID, attemptMeta{Attempts: c.Attempt - 1})
}

// Fail dead-letters the claimed job with its cause and releases the
// lease; the queue never runs a reported failure again. executions is
// how many times this claim ran the job (0 for a payload it could not
// start), so the record counts the executions charged to the job: the
// claims before this one plus this claim's own.
func (c *Claimed) Fail(cause string, executions int) error {
	defer c.release()
	return c.q.deadLetter(c.ID, c.Payload, c.Attempt-1+executions, cause)
}

// attemptMeta is the per-job claim bookkeeping at queue/attempts/<id>.
// Records written before failures stopped being requeued also carry
// not_before_unix_ns and last_error; decoding ignores them.
type attemptMeta struct {
	Attempts int `json:"attempts"`
}

// readAttempts loads a job's claim bookkeeping; a missing or torn file
// reads as the zero meta (fresh job).
func (q *Queue) readAttempts(id string) attemptMeta {
	var meta attemptMeta
	raw, err := os.ReadFile(filepath.Join(q.dir, "attempts", jobID(id)))
	if err != nil {
		return meta
	}
	_ = json.Unmarshal(raw, &meta)
	return meta
}

func (q *Queue) writeAttempts(id string, meta attemptMeta) {
	data, err := json.Marshal(meta)
	if err != nil {
		return
	}
	_ = atomicWrite(filepath.Join(q.dir, "attempts", jobID(id)), data)
}

// Attempts reports how many executions the job has been charged for.
func (q *Queue) Attempts(id string) int { return q.readAttempts(id).Attempts }

// FailedJob is a dead-lettered job's terminal record. Its file holds
// the JSON of every field but the id, which is the file name.
type FailedJob struct {
	ID       string    `json:"-"`
	Error    string    `json:"error"`
	Attempts int       `json:"attempts"`
	At       time.Time `json:"at"`
	Payload  []byte    `json:"payload"`
}

// deadLetter writes the terminal failure record and retires the job
// from pending and attempts bookkeeping. The record is written before
// the pending file is removed (same crash ordering as Done).
func (q *Queue) deadLetter(id string, payload []byte, attempts int, cause string) error {
	raw, err := encodeRecord(FailedJob{Error: cause, Attempts: attempts, At: time.Now(), Payload: payload})
	if err != nil {
		return err
	}
	if err := atomicWrite(filepath.Join(q.dir, "failed", jobID(id)), raw); err != nil {
		return err
	}
	_ = os.Remove(filepath.Join(q.dir, "pending", jobID(id)))
	_ = os.Remove(filepath.Join(q.dir, "attempts", jobID(id)))
	return nil
}

// Failed returns the dead-letter record for a job, if it has one. The
// file's existence is what makes the id terminal: a record that does
// not decode reads as Error "unreadable dead-letter record", so
// Enqueue still refuses to resurrect the job.
func (q *Queue) Failed(id string) (*FailedJob, bool) {
	raw, err := os.ReadFile(filepath.Join(q.dir, "failed", jobID(id)))
	if err != nil {
		return nil, false
	}
	fj := &FailedJob{}
	if decodeRecord(raw, fj) != nil {
		fj = &FailedJob{Error: "unreadable dead-letter record"}
	}
	fj.ID = jobID(id)
	return fj, true
}

// FailedCount reports how many jobs are dead-lettered.
func (q *Queue) FailedCount() int {
	ids, _ := q.records("failed")
	return len(ids)
}

// readPending loads a job's pending record. raw is nil when the file
// could not be read; otherwise it holds the file's bytes and err
// reports whether they decode.
func (q *Queue) readPending(id string) (job Job, raw []byte, err error) {
	job.ID = id
	if raw, err = os.ReadFile(filepath.Join(q.dir, "pending", id)); err != nil {
		return job, nil, err
	}
	return job, raw, decodeRecord(raw, &job)
}

// tryLease acquires the job's lease non-blockingly, stealing leases
// older than the store's stale timeout.
func (q *Queue) tryLease(id string) (func(), bool) {
	if err := fault.Hook(context.Background(), fault.PointQueueLease); err != nil {
		return nil, false // injected lease failure: job stays claimable
	}
	path := filepath.Join(q.dir, "leases", id+".lock")
	if fi, err := os.Stat(path); err == nil && time.Since(fi.ModTime()) > q.s.lockStale {
		if os.Remove(path) == nil {
			q.s.steals.Add(1)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, false
	}
	_, _ = fmt.Fprintf(f, "%d\n", os.Getpid())
	_ = f.Close()
	return func() { _ = os.Remove(path) }, true
}

// Owner returns the rendezvous-hash (highest-random-weight) owner of a
// key among peers: each (key, peer) pair scores independently and the
// maximum wins, so adding or removing one worker only remaps the keys
// that worker owned. Empty peers returns "".
func Owner(key string, peers []string) string {
	var best string
	var bestScore uint64
	for _, p := range peers {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{0})
		h.Write([]byte(p))
		score := h.Sum64()
		if best == "" || score > bestScore || (score == bestScore && p < best) {
			best, bestScore = p, score
		}
	}
	return best
}

// stagingPrefix names the temporary files a write is staged in before
// its rename.
const stagingPrefix = ".tmp-"

// atomicWrite writes a file via tmp+rename in its final directory.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), stagingPrefix+"*")
	if err != nil {
		return fmt.Errorf("artifact: write %s: %w", filepath.Base(path), err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: write %s: %v / %v", filepath.Base(path), werr, cerr)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: write %s: %w", filepath.Base(path), err)
	}
	return nil
}
