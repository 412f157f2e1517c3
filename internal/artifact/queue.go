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
	"time"

	"github.com/climate-rca/rca/internal/binenc"
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
//	pending/<id>   job payload (affinity key + body, framed)
//	leases/<id>.lock   held while a worker runs the job
//	done/<id>      completion marker (result bytes, framed)
//	attempts/<id>  claim bookkeeping (attempts charged)
//	failed/<id>    dead-letter record (error, attempts, payload, framed)
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

// Job is one queued unit of work.
type Job struct {
	ID       string
	Affinity string // consistent-hash routing key (buildKey hash)
	Payload  []byte
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
	w := binenc.NewWriter(len(payload) + 64)
	w.String(affinity)
	w.Raw(payload)
	return atomicWrite(path, frame(w.Bytes()))
}

// Claim leases the best available job for this worker: own-affinity
// jobs first (rendezvous hash of the affinity key over peers), then
// anyone's backlog. ok=false means the pending queue is empty (jobs
// leased by other workers are not available).
func (q *Queue) Claim(workerID string, peers []string) (*Claimed, bool, error) {
	entries, err := os.ReadDir(filepath.Join(q.dir, "pending"))
	if err != nil {
		return nil, false, fmt.Errorf("artifact: claim: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	var own, others []string
	for _, id := range names {
		aff, _, err := q.readPending(id)
		if err != nil {
			continue // claimed and completed since ReadDir, or torn write
		}
		if Owner(aff, peers) == workerID || len(peers) <= 1 {
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
		aff, payload, err := q.readPending(id)
		if err != nil {
			// Finished (or corrupt) under a stale lease; clean up.
			release()
			continue
		}
		if q.IsDone(id) {
			_ = os.Remove(filepath.Join(q.dir, "pending", id))
			release()
			continue
		}
		// Charge the attempt under the lease. A failed job never
		// returns to pending, so a job already at its budget got here
		// only through claims that never reported back (a crash, or a
		// Release): dead-letter it rather than run it again.
		meta := q.readAttempts(id)
		if meta.Attempts >= q.MaxAttempts {
			_ = q.deadLetter(id, payload, meta.Attempts,
				"attempt budget exhausted: no claim reported back (worker crashed mid-job or released the job)")
			release()
			continue
		}
		meta.Attempts++
		q.writeAttempts(id, meta)
		return &Claimed{
			Job:     Job{ID: id, Affinity: aff, Payload: payload},
			Attempt: meta.Attempts,
			q:       q,
			release: release,
		}, true, nil
	}
	return nil, false, nil
}

// Pending reports how many jobs are queued (leased or not).
func (q *Queue) Pending() int {
	entries, err := os.ReadDir(filepath.Join(q.dir, "pending"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
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

// Release returns the job to the queue un-run (worker shutting down).
// The attempt already charged at claim stands — a lease that is taken
// and released without running still burned budget; graceful shutdown
// paths that want the attempt back can live with the small loss, and
// crash loops stay bounded.
func (c *Claimed) Release() { c.release() }

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

// FailedJob is a dead-lettered job's terminal record.
type FailedJob struct {
	ID       string
	Attempts int
	Error    string
	At       time.Time
	Payload  []byte
}

// deadLetter writes the terminal failure record and retires the job
// from pending and attempts bookkeeping. The record is written before
// the pending file is removed (same crash ordering as Done).
func (q *Queue) deadLetter(id string, payload []byte, attempts int, cause string) error {
	w := binenc.NewWriter(len(payload) + len(cause) + 64)
	w.String(cause)
	w.Int(attempts)
	w.I64(time.Now().UnixNano())
	w.Raw(payload)
	if err := atomicWrite(filepath.Join(q.dir, "failed", jobID(id)), frame(w.Bytes())); err != nil {
		return err
	}
	_ = os.Remove(filepath.Join(q.dir, "pending", jobID(id)))
	_ = os.Remove(filepath.Join(q.dir, "attempts", jobID(id)))
	return nil
}

// Failed returns the dead-letter record for a job, if it has one.
func (q *Queue) Failed(id string) (*FailedJob, bool) {
	raw, err := os.ReadFile(filepath.Join(q.dir, "failed", jobID(id)))
	if err != nil {
		return nil, false
	}
	body, err := unframe(raw)
	if err != nil {
		return nil, false
	}
	r := binenc.NewReader(body)
	fj := &FailedJob{ID: jobID(id)}
	fj.Error = r.String()
	fj.Attempts = r.Int()
	fj.At = time.Unix(0, r.I64())
	fj.Payload = r.Raw()
	if err := r.Done(); err != nil {
		return nil, false
	}
	return fj, true
}

// FailedCount reports how many jobs are dead-lettered.
func (q *Queue) FailedCount() int {
	entries, err := os.ReadDir(filepath.Join(q.dir, "failed"))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}

func (q *Queue) readPending(id string) (affinity string, payload []byte, err error) {
	raw, err := os.ReadFile(filepath.Join(q.dir, "pending", id))
	if err != nil {
		return "", nil, err
	}
	body, err := unframe(raw)
	if err != nil {
		return "", nil, err
	}
	r := binenc.NewReader(body)
	affinity = r.String()
	payload = r.Raw()
	if err := r.Done(); err != nil {
		return "", nil, err
	}
	return affinity, payload, nil
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

// atomicWrite writes a file via tmp+rename in its final directory.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
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
