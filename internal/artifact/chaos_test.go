package artifact

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
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
		if err := s.Put(ClassCorpus, "key", []byte("payload")); err == nil {
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
	if err := s.Put(ClassCorpus, "mem-only", []byte("kept in memory")); err != nil {
		t.Fatalf("degraded put errored: %v", err)
	}
	got, ok := s.Get(ClassCorpus, "mem-only")
	if !ok || !bytes.Equal(got, []byte("kept in memory")) {
		t.Fatalf("degraded get = %q, %v; want the memory tier's payload", got, ok)
	}
	// The earlier failed puts also parked their payloads in the tier.
	if got, ok := s.Get(ClassCorpus, "key"); !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("failed put's payload not recoverable from the memory tier: %q, %v", got, ok)
	}

	// Heal the disk and wait out the cooldown: the next put wins the
	// half-open probe, succeeds, and closes the breaker.
	fault.SetGlobal(nil)
	time.Sleep(40 * time.Millisecond)
	if err := s.Put(ClassCorpus, "healed", []byte("back on disk")); err != nil {
		t.Fatalf("probe put errored: %v", err)
	}
	if s.Degraded() {
		t.Fatal("successful probe did not close the breaker")
	}
	a := addr(ClassCorpus, "healed")
	if _, err := os.Stat(s.blobPath(ClassCorpus, a)); err != nil {
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

// TestQueueRetryBackoffDLQ drives one job through the full retry
// lifecycle: claim (attempt 1) → Fail → invisible during backoff →
// claim (attempt 2) → Fail at budget → dead letter with the cause,
// attempts, and original payload preserved.
func TestQueueRetryBackoffDLQ(t *testing.T) {
	s := openTest(t)
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	q.MaxAttempts = 2
	q.BackoffBase = 20 * time.Millisecond
	payload := []byte("job body")
	if err := q.Enqueue("job1", "aff", payload); err != nil {
		t.Fatal(err)
	}

	c, ok, err := q.Claim("w1", nil)
	if err != nil || !ok {
		t.Fatalf("first claim: ok=%v err=%v", ok, err)
	}
	if c.Attempt != 1 {
		t.Fatalf("first claim Attempt = %d; want 1", c.Attempt)
	}
	dead, err := c.Fail("transient wobble")
	if err != nil || dead {
		t.Fatalf("first Fail: dead=%v err=%v; want retryable", dead, err)
	}

	// Backing off: the job must be invisible to claimers until the
	// deadline passes (base 20ms + jitter < 40ms).
	if _, ok, _ := q.Claim("w1", nil); ok {
		t.Fatal("claimed a job inside its backoff window")
	}
	deadline := time.Now().Add(time.Second)
	var c2 *Claimed
	for time.Now().Before(deadline) {
		c2, ok, err = q.Claim("w1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c2 == nil {
		t.Fatal("job never became claimable after backoff")
	}
	if c2.Attempt != 2 {
		t.Fatalf("second claim Attempt = %d; want 2", c2.Attempt)
	}
	dead, err = c2.Fail("still broken")
	if err != nil || !dead {
		t.Fatalf("final Fail: dead=%v err=%v; want dead letter", dead, err)
	}

	fj, ok := q.Failed("job1")
	if !ok {
		t.Fatal("dead-lettered job has no failure record")
	}
	if fj.Error != "still broken" || fj.Attempts != 2 || !bytes.Equal(fj.Payload, payload) {
		t.Fatalf("failure record = %+v; want cause/attempts/payload preserved", fj)
	}
	if fj.At.IsZero() {
		t.Fatal("failure record missing timestamp")
	}
	if got := q.FailedCount(); got != 1 {
		t.Fatalf("FailedCount = %d; want 1", got)
	}
	if got := q.Pending(); got != 0 {
		t.Fatalf("Pending = %d after dead-letter; want 0", got)
	}
	// Terminal: re-enqueueing the same id must not resurrect it.
	if err := q.Enqueue("job1", "aff", payload); err != nil {
		t.Fatal(err)
	}
	if got := q.Pending(); got != 0 {
		t.Fatalf("dead-lettered job resurrected by Enqueue (pending=%d)", got)
	}
}

// TestQueueRejectDeadLettersImmediately: permanent failures skip the
// retry budget entirely.
func TestQueueRejectDeadLettersImmediately(t *testing.T) {
	s := openTest(t)
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("poison", "aff", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	c, ok, err := q.Claim("w1", nil)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := c.Reject("malformed payload"); err != nil {
		t.Fatal(err)
	}
	fj, ok := q.Failed("poison")
	if !ok || fj.Error != "malformed payload" {
		t.Fatalf("Failed = %+v, %v; want immediate dead letter", fj, ok)
	}
	if got := q.Pending(); got != 0 {
		t.Fatalf("Pending = %d; want 0", got)
	}
}

// TestQueueCrashLoopDeadLetters simulates a poison pill that never
// fails cleanly: each claim's lease is dropped by a "crash" (release
// without Done/Fail). Attempts are charged at claim, so after the
// budget the next claimer dead-letters the job instead of running it.
func TestQueueCrashLoopDeadLetters(t *testing.T) {
	s := openTest(t, WithLockStale(time.Nanosecond)) // leases instantly stale
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	q.MaxAttempts = 2
	q.BackoffBase = time.Millisecond
	if err := q.Enqueue("pill", "aff", []byte("kills workers")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		c, ok, err := q.Claim("w1", nil)
		if err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
		c.Release() // worker "crashed"; attempt already charged
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
	if err := s.Put(ClassProgram, "p", []byte("compiled bytes")); err != nil {
		t.Fatal(err)
	}
	plane(t, "artifact.get:corrupt@times=1", 3)
	if _, ok := s.Get(ClassProgram, "p"); ok {
		t.Fatal("tampered read reported a hit")
	}
	a := addr(ClassProgram, "p")
	if _, err := os.Stat(s.blobPath(ClassProgram, a)); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob not deleted: %v", err)
	}
	builds := 0
	got, built, err := s.GetOrBuild(context.Background(), ClassProgram, "p", func() ([]byte, error) {
		builds++
		return []byte("compiled bytes"), nil
	})
	if err != nil || !built || builds != 1 || !bytes.Equal(got, []byte("compiled bytes")) {
		t.Fatalf("rebuild after corruption: got=%q built=%v builds=%d err=%v", got, built, builds, err)
	}
}

// TestBackoffZeroValueQueueGrows is the regression test for the
// zero-value Queue{} backoff bug: with no BackoffMax configured, the
// doubling loop's `d < q.BackoffMax` guard was false from the first
// iteration, so every retry waited only the base delay. A directly
// constructed Queue must now grow exponentially up to the default cap.
func TestBackoffZeroValueQueueGrows(t *testing.T) {
	q := &Queue{} // deliberately NOT via NewQueue: no defaults applied
	jitterless := func(attempt int) time.Duration {
		d := q.backoff("job-x", attempt)
		// Strip the deterministic jitter (always < base).
		return d - d%DefaultBackoffBase
	}
	prev := jitterless(1)
	if prev != DefaultBackoffBase {
		t.Fatalf("attempt 1 backoff = %v, want %v", prev, DefaultBackoffBase)
	}
	for attempt := 2; attempt <= 7; attempt++ {
		d := jitterless(attempt)
		if d != 2*prev {
			t.Fatalf("attempt %d backoff = %v, want %v (exponential growth)", attempt, d, 2*prev)
		}
		prev = d
	}
	// Far past the doubling range the delay must cap at the default max.
	if d := jitterless(40); d != DefaultBackoffMax {
		t.Fatalf("attempt 40 backoff = %v, want capped %v", d, DefaultBackoffMax)
	}
}

// TestBackoffHelperDefaults pins the shared helper's contract: both
// knobs default when non-positive, the cap binds, and the jitter is a
// deterministic pure function of (id, attempt).
func TestBackoffHelperDefaults(t *testing.T) {
	if a, b := Backoff("id", 3, 0, 0), Backoff("id", 3, DefaultBackoffBase, DefaultBackoffMax); a != b {
		t.Fatalf("zero knobs %v != explicit defaults %v", a, b)
	}
	base, max := 100*time.Millisecond, 300*time.Millisecond
	d := Backoff("id", 10, base, max)
	if d < max || d >= max+base {
		t.Fatalf("capped delay %v outside [%v, %v)", d, max, max+base)
	}
	if Backoff("id", 5, base, max) != Backoff("id", 5, base, max) {
		t.Fatal("jitter is not deterministic")
	}
	if Backoff("a", 5, base, max) == Backoff("b", 5, base, max) {
		t.Fatal("jitter ignores the id")
	}
}
