package artifact

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/climate-rca/rca/internal/fault"
)

// plane installs a global fault plane for the test and tears it down.
func plane(t *testing.T, spec string, seed uint64) *fault.Plane {
	t.Helper()
	p, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	fault.SetGlobal(p)
	t.Cleanup(func() { fault.SetGlobal(nil) })
	return p
}

// TestBreakerTripAndRecover pins the circuit-breaker contract: K
// consecutive put failures trip the store into degraded mode (puts and
// gets served from the memory tier without errors), and once the
// disk recovers a half-open probe restores write-through.
func TestBreakerTripAndRecover(t *testing.T) {
	s := openTest(t, WithBreaker(3, 30*time.Millisecond))
	plane(t, "artifact.put:eio", 1)

	for i := 0; i < 3; i++ {
		if err := s.Put(ClassOutcome, "key", []byte("payload")); err == nil {
			t.Fatalf("put %d succeeded under a 100%% eio plane", i)
		}
	}
	if !s.Degraded() {
		t.Fatal("3 consecutive failures did not trip a threshold-3 breaker")
	}
	if got := s.Stats().Trips; got != 1 {
		t.Fatalf("Trips = %d; want 1", got)
	}

	// While degraded (and before the cooldown's probe window), puts are
	// error-free pass-throughs to the memory tier and gets serve from it.
	if err := s.Put(ClassOutcome, "mem-only", []byte("kept in memory")); err != nil {
		t.Fatalf("degraded put errored: %v", err)
	}
	got, ok := s.Get(ClassOutcome, "mem-only")
	if !ok || !bytes.Equal(got, []byte("kept in memory")) {
		t.Fatalf("degraded get = %q, %v; want the memory tier's payload", got, ok)
	}
	// The earlier failed puts also parked their payloads in the tier.
	if got, ok := s.Get(ClassOutcome, "key"); !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("failed put's payload not recoverable from the memory tier: %q, %v", got, ok)
	}

	// Heal the disk and wait out the cooldown: the next put wins the
	// half-open probe, succeeds, and closes the breaker.
	fault.SetGlobal(nil)
	time.Sleep(40 * time.Millisecond)
	if err := s.Put(ClassOutcome, "healed", []byte("back on disk")); err != nil {
		t.Fatalf("probe put errored: %v", err)
	}
	if s.Degraded() {
		t.Fatal("successful probe did not close the breaker")
	}
	a := addr(ClassOutcome, "healed")
	if _, err := os.Stat(s.blobPath(ClassOutcome, a)); err != nil {
		t.Fatalf("post-recovery blob not on disk: %v", err)
	}
}

// TestDegradedOpenUnusableDir: a store whose root cannot be created
// (a regular file blocks the path — chmod tricks don't work for root)
// opens pre-tripped instead of failing, and still serves puts/gets and
// locks from memory.
func TestDegradedOpenUnusableDir(t *testing.T) {
	base := t.TempDir()
	blocker := filepath.Join(base, "blocker")
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(filepath.Join(blocker, "store"))
	if err != nil {
		t.Fatalf("Open with unusable root errored: %v", err)
	}
	if !s.Degraded() {
		t.Fatal("store with unusable root opened healthy")
	}
	if err := s.Put(ClassOutcome, "k", []byte("v")); err != nil {
		t.Fatalf("degraded put: %v", err)
	}
	if got, ok := s.Get(ClassOutcome, "k"); !ok || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("degraded get = %q, %v", got, ok)
	}
	release, err := s.Lock(context.Background(), "build-x")
	if err != nil {
		t.Fatalf("degraded Lock: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.Lock(ctx, "build-x"); err == nil {
		t.Fatal("degraded Lock double-acquired")
	}
	release()
}

// TestQueueRejectDeadLettersImmediately: a reported failure is never
// requeued. Fail dead-letters the job at once with its cause, its
// original payload and the executions charged to it, and re-enqueueing
// the same id cannot resurrect it.
func TestQueueRejectDeadLettersImmediately(t *testing.T) {
	s := openTest(t)
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("job body")
	if err := q.Enqueue("poison", "aff", payload); err != nil {
		t.Fatal(err)
	}
	c, ok, err := q.Claim("w1", nil)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	c.release() // a claim that never reported back (a crash) stays charged
	c, ok, err = q.Claim("w1", nil)
	if err != nil || !ok || c.Attempt != 2 {
		t.Fatalf("second claim: ok=%v err=%v; want attempt 2", ok, err)
	}
	// This claim ran the job twice (its worker retried in-process).
	if err := c.Fail("unknown subprogram", 2); err != nil {
		t.Fatal(err)
	}
	fj, ok := q.Failed("poison")
	if !ok || fj.Error != "unknown subprogram" {
		t.Fatalf("Failed = %+v, %v; want immediate dead letter", fj, ok)
	}
	if fj.Attempts != 3 || !bytes.Equal(fj.Payload, payload) || fj.At.IsZero() {
		t.Fatalf("failure record = %+v; want 1 earlier claim + 2 executions, payload and time kept", fj)
	}
	if got := q.Pending(); got != 0 {
		t.Fatalf("Pending = %d; want 0", got)
	}
	if got := q.FailedCount(); got != 1 {
		t.Fatalf("FailedCount = %d; want 1", got)
	}
	// Terminal: re-enqueueing the same id must not resurrect it.
	if err := q.Enqueue("poison", "aff", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := q.Claim("w1", nil); ok || q.Pending() != 0 {
		t.Fatal("dead-lettered job resurrected by Enqueue")
	}
}

// TestQueueLegacyAttemptRecord: an attempts record written while
// failures were still requeued carries a backoff deadline and the last
// error. It must still decode, and the deadline no longer hides the job.
func TestQueueLegacyAttemptRecord(t *testing.T) {
	s := openTest(t)
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("old", "aff", []byte("body")); err != nil {
		t.Fatal(err)
	}
	legacy := fmt.Sprintf(`{"attempts":1,"not_before_unix_ns":%d,"last_error":"wobble"}`,
		time.Now().Add(time.Hour).UnixNano())
	if err := os.WriteFile(filepath.Join(s.dir, "queue", "attempts", "old"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	c, ok, err := q.Claim("w1", nil)
	if err != nil || !ok {
		t.Fatalf("claim over a legacy record: ok=%v err=%v", ok, err)
	}
	if c.Attempt != 2 {
		t.Fatalf("Attempt = %d; want 2 (the legacy count plus this claim)", c.Attempt)
	}
	c.Release()
}

// TestQueueCrashLoopDeadLetters simulates a poison pill that never
// fails cleanly: each claim's lease is dropped by a "crash" (the lease
// goes without Done, Fail or Release). Attempts are charged at claim,
// so after the budget the next claimer dead-letters the job instead of
// running it. Graceful Releases between the crashes are refunded and
// do not bring the dead letter closer.
func TestQueueCrashLoopDeadLetters(t *testing.T) {
	s := openTest(t, WithLockStale(time.Nanosecond)) // leases instantly stale
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	q.MaxAttempts = 2
	if err := q.Enqueue("pill", "aff", []byte("kills workers")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c, ok, err := q.Claim("w1", nil)
		if err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
		if want := 1 + i/2; c.Attempt != want {
			t.Fatalf("claim %d: attempt %d; want %d", i, c.Attempt, want)
		}
		if i%2 == 0 {
			c.Release() // graceful shutdown: the attempt is refunded
		} else {
			c.release() // worker "crashed"; the attempt stays charged
		}
	}
	// Budget exhausted with no clean Fail: the next claim sweep must
	// dead-letter the job rather than hand it out again.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		c, ok, err := q.Claim("w1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("claimed exhausted job on attempt %d", c.Attempt)
		}
		if _, failed := q.Failed("pill"); failed {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	fj, ok := q.Failed("pill")
	if !ok {
		t.Fatal("crash-looping job never dead-lettered")
	}
	if fj.Attempts != 2 {
		t.Fatalf("dead letter attempts = %d; want 2", fj.Attempts)
	}
	if !strings.Contains(fj.Error, "crashed") {
		t.Fatalf("dead letter cause %q does not name the crash", fj.Error)
	}
}

// TestQueueLeaseFaultPoint: an injected lease failure skips the job
// for that sweep without corrupting queue state.
func TestQueueLeaseFaultPoint(t *testing.T) {
	s := openTest(t)
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("j", "aff", []byte("body")); err != nil {
		t.Fatal(err)
	}
	plane(t, "queue.lease:eio@times=1", 1)
	if _, ok, err := q.Claim("w1", nil); err != nil || ok {
		t.Fatalf("claim under lease fault: ok=%v err=%v; want quiet skip", ok, err)
	}
	c, ok, err := q.Claim("w1", nil)
	if err != nil || !ok {
		t.Fatalf("claim after fault budget: ok=%v err=%v", ok, err)
	}
	if err := c.Done([]byte("result")); err != nil {
		t.Fatal(err)
	}
	if !q.IsDone("j") {
		t.Fatal("job not done")
	}
}

// TestQueueDoneFaultPoint: an injected done failure leaves the job
// pending (lease released) so another worker re-runs it; the retry
// then completes.
func TestQueueDoneFaultPoint(t *testing.T) {
	s := openTest(t)
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("j", "aff", []byte("body")); err != nil {
		t.Fatal(err)
	}
	plane(t, "queue.done:eio@times=1", 1)
	c, ok, err := q.Claim("w1", nil)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := c.Done([]byte("result")); !fault.IsInjected(err) {
		t.Fatalf("Done under fault = %v; want injected error", err)
	}
	if q.IsDone("j") {
		t.Fatal("done marker written despite injected failure")
	}
	c2, ok, err := q.Claim("w2", nil)
	if err != nil || !ok {
		t.Fatalf("re-claim: ok=%v err=%v", ok, err)
	}
	if err := c2.Done([]byte("result")); err != nil {
		t.Fatal(err)
	}
	result, ok := q.Result("j")
	if !ok || !bytes.Equal(result, []byte("result")) {
		t.Fatalf("Result = %q, %v", result, ok)
	}
}

// TestGetCorruptionFaultHealsByRebuild: a corrupt-on-read fault makes
// the integrity check delete the blob; the next GetOrBuild rebuilds.
func TestGetCorruptionFaultHealsByRebuild(t *testing.T) {
	s := openTest(t)
	if err := s.Put(ClassOutcome, "p", []byte("outcome bytes")); err != nil {
		t.Fatal(err)
	}
	plane(t, "artifact.get:corrupt@times=1", 3)
	if _, ok := s.Get(ClassOutcome, "p"); ok {
		t.Fatal("tampered read reported a hit")
	}
	a := addr(ClassOutcome, "p")
	if _, err := os.Stat(s.blobPath(ClassOutcome, a)); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob not deleted: %v", err)
	}
	builds := 0
	got, built, err := s.GetOrBuild(context.Background(), ClassOutcome, "p", func() ([]byte, error) {
		builds++
		return []byte("outcome bytes"), nil
	})
	if err != nil || !built || builds != 1 || !bytes.Equal(got, []byte("outcome bytes")) {
		t.Fatalf("rebuild after corruption: got=%q built=%v builds=%d err=%v", got, built, builds, err)
	}
}
