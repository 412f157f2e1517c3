package artifact

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func openTest(t *testing.T, opts ...Option) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t)
	payload := []byte("the artifact body")
	if _, ok := s.Get(ClassCorpus, "k1"); ok {
		t.Fatal("empty store reported a hit")
	}
	if err := s.Put(ClassCorpus, "k1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(ClassCorpus, "k1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	// The class is part of the address: same key, other class misses.
	if _, ok := s.Get(ClassProgram, "k1"); ok {
		t.Fatal("key leaked across classes")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 {
		t.Fatalf("stats = %+v; want 1 hit, 2 misses, 1 put", st)
	}
	if st.Bytes <= int64(len(payload)) {
		t.Fatalf("bytes = %d; want payload plus framing", st.Bytes)
	}
}

func TestReopenSeesBlobsAndBytes(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(ClassOutcome, "fp", []byte("outcome")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(ClassOutcome, "fp"); !ok || string(got) != "outcome" {
		t.Fatalf("reopened store Get = %q, %v", got, ok)
	}
	if s2.Stats().Bytes != s1.Stats().Bytes {
		t.Fatalf("reopen bytes %d != writer's %d", s2.Stats().Bytes, s1.Stats().Bytes)
	}
}

// TestCorruptBlobFallsBackToRebuild is the integrity acceptance test:
// a flipped payload byte turns the read into a miss, the damaged blob
// is deleted, and GetOrBuild rebuilds cleanly.
func TestCorruptBlobFallsBackToRebuild(t *testing.T) {
	s := openTest(t)
	if err := s.Put(ClassProgram, "k", []byte("valid payload")); err != nil {
		t.Fatal(err)
	}
	path := s.blobPath(ClassProgram, addr(ClassProgram, "k"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff // corrupt the payload tail
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ClassProgram, "k"); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt blob not deleted: %v", err)
	}
	rebuilt := false
	data, built, err := s.GetOrBuild(context.Background(), ClassProgram, "k", func() ([]byte, error) {
		rebuilt = true
		return []byte("rebuilt payload"), nil
	})
	if err != nil || !built || !rebuilt || string(data) != "rebuilt payload" {
		t.Fatalf("GetOrBuild after corruption = %q, built=%v, err=%v", data, built, err)
	}
	if got, ok := s.Get(ClassProgram, "k"); !ok || string(got) != "rebuilt payload" {
		t.Fatalf("rebuilt blob not persisted: %q, %v", got, ok)
	}
}

func TestEvictionDropsLeastRecentlyUsed(t *testing.T) {
	// Each framed blob is 8 (magic) + 32 (digest) + 100 bytes; cap the
	// store at three blobs' worth.
	s := openTest(t, WithMaxBytes(3*140))
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 3; i++ {
		if err := s.Put(ClassCorpus, fmt.Sprintf("k%d", i), payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so LRU order is deterministic.
		path := s.blobPath(ClassCorpus, addr(ClassCorpus, fmt.Sprintf("k%d", i)))
		stamp := time.Now().Add(time.Duration(i-10) * time.Minute)
		if err := os.Chtimes(path, stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(ClassCorpus, "k3", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ClassCorpus, "k0"); ok {
		t.Fatal("oldest blob survived eviction")
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, ok := s.Get(ClassCorpus, k); !ok {
			t.Fatalf("recent blob %s evicted", k)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v; want evictions > 0", st)
	}
	if st.Bytes > 3*140 {
		t.Fatalf("bytes %d still over the cap", st.Bytes)
	}
}

func TestGetOrBuildBuildsOnceUnderConcurrency(t *testing.T) {
	s := openTest(t)
	var builds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _, err := s.GetOrBuild(context.Background(), ClassCompiled, "shared", func() ([]byte, error) {
				builds.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				return []byte("built once"), nil
			})
			if err != nil || string(data) != "built once" {
				t.Errorf("GetOrBuild = %q, %v", data, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times; want once", n)
	}
}

func TestLockStaleSteal(t *testing.T) {
	s := openTest(t, WithLockStale(50*time.Millisecond))
	// Simulate a crashed holder: a lock file nobody will release.
	name := addr(ClassCompiled, "orphaned")
	path := filepath.Join(s.dir, "locks", name+".lock")
	if err := os.WriteFile(path, []byte("99999"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	release, err := s.lock(ctx, name)
	if err != nil {
		t.Fatalf("stale lock not stolen: %v", err)
	}
	release()
}

// TestLockStealCounter pins the steal observability: every path that
// removes an aged lock — blocking lock and the queue's lease claim —
// must bump Stats.Steals exactly once per stolen file.
func TestLockStealCounter(t *testing.T) {
	s := openTest(t, WithLockStale(50*time.Millisecond))
	age := func(path string) {
		t.Helper()
		if err := os.WriteFile(path, []byte("99999\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-time.Minute)
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}

	// Blocking lock path.
	age(filepath.Join(s.dir, "locks", "dead1.lock"))
	release, err := s.Lock(context.Background(), "dead1")
	if err != nil {
		t.Fatalf("stale lock not stolen: %v", err)
	}
	release()
	if got := s.Stats().Steals; got != 1 {
		t.Fatalf("after blocking steal: Steals = %d; want 1", got)
	}

	// Queue lease path: an aged lease left by a crashed worker must be
	// stolen when the next worker claims the job.
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("orphan", "build", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	age(filepath.Join(s.dir, "queue", "leases", "orphan.lock"))
	c, ok, err := q.Claim("w1", []string{"w1"})
	if err != nil || !ok {
		t.Fatalf("Claim over aged lease = %v, %v", ok, err)
	}
	c.Release()
	if got := s.Stats().Steals; got != 2 {
		t.Fatalf("after lease steal: Steals = %d; want 2", got)
	}

	// A live (fresh) lock is never counted as stolen.
	release, err = s.Lock(context.Background(), "alive")
	if err != nil {
		t.Fatal(err)
	}
	// A canceled ctx makes Lock a single attempt, so the fresh lock
	// never ages past the 50ms stale bound while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Lock(ctx, "alive"); err == nil {
		t.Fatal("Lock acquired a held lock")
	}
	release()
	if got := s.Stats().Steals; got != 2 {
		t.Fatalf("live lock counted as steal: Steals = %d; want 2", got)
	}
}

func TestLockWaitsForHolder(t *testing.T) {
	s := openTest(t)
	release, err := s.Lock(context.Background(), "busy")
	if err != nil {
		t.Fatal(err)
	}
	// A short-deadline waiter gives up; ctx is honored while polling.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.Lock(ctx, "busy"); err == nil {
		t.Fatal("Lock succeeded while held")
	}
	release()
	release2, err := s.Lock(context.Background(), "busy")
	if err != nil {
		t.Fatalf("lock not reacquirable after release: %v", err)
	}
	release2()
}

func TestQueueLifecycle(t *testing.T) {
	s := openTest(t)
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("job1", "buildA", []byte("payload1")); err != nil {
		t.Fatal(err)
	}
	// Enqueue is idempotent per id.
	if err := q.Enqueue("job1", "buildA", []byte("payload1")); err != nil {
		t.Fatal(err)
	}
	if n := q.Pending(); n != 1 {
		t.Fatalf("Pending = %d; want one job", n)
	}
	c, ok, err := q.Claim("w1", []string{"w1"})
	if err != nil || !ok {
		t.Fatalf("Claim = %v, %v", ok, err)
	}
	if c.ID != "job1" || c.Affinity != "buildA" || string(c.Payload) != "payload1" {
		t.Fatalf("claimed %+v", c.Job)
	}
	// The job is leased: a second claimer finds nothing.
	if _, ok, _ := q.Claim("w2", []string{"w1", "w2"}); ok {
		t.Fatal("leased job claimed twice")
	}
	if err := c.Done([]byte("result")); err != nil {
		t.Fatal(err)
	}
	if !q.IsDone("job1") {
		t.Fatal("done marker missing")
	}
	if res, ok := q.Result("job1"); !ok || string(res) != "result" {
		t.Fatalf("Result = %q, %v", res, ok)
	}
	// Re-enqueueing a completed job is a no-op.
	if err := q.Enqueue("job1", "buildA", []byte("payload1")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := q.Claim("w1", []string{"w1"}); ok {
		t.Fatal("completed job re-claimed")
	}
}

func TestQueueReleaseRequeues(t *testing.T) {
	s := openTest(t)
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("j", "a", []byte("p")); err != nil {
		t.Fatal(err)
	}
	c, ok, err := q.Claim("w1", []string{"w1"})
	if err != nil || !ok {
		t.Fatalf("Claim = %v, %v", ok, err)
	}
	c.Release()
	c2, ok, err := q.Claim("w1", []string{"w1"})
	if err != nil || !ok {
		t.Fatalf("released job not reclaimable: %v, %v", ok, err)
	}
	if err := c2.Done(nil); err != nil {
		t.Fatal(err)
	}
}

// TestQueueAffinityPreference seeds one job per worker and checks each
// worker claims its own rendezvous assignment first, not enqueue order.
func TestQueueAffinityPreference(t *testing.T) {
	s := openTest(t)
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{"w1", "w2"}
	// Find two affinity keys that hash to different owners.
	var k1, k2 string
	for i := 0; k1 == "" || k2 == ""; i++ {
		k := fmt.Sprintf("build%d", i)
		if Owner(k, peers) == "w1" && k1 == "" {
			k1 = k
		} else if Owner(k, peers) == "w2" {
			k2 = k
		}
	}
	if err := q.Enqueue("forW2", k2, nil); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("forW1", k1, nil); err != nil {
		t.Fatal(err)
	}
	c, ok, err := q.Claim("w1", peers)
	if err != nil || !ok {
		t.Fatalf("Claim = %v, %v", ok, err)
	}
	if c.ID != "forW1" {
		t.Fatalf("w1 claimed %s; want its own-affinity job first", c.ID)
	}
	c.Release()
	// With its own backlog empty, a worker steals the other's job.
	c2, ok, err := q.Claim("w2", peers)
	if err != nil || !ok {
		t.Fatalf("Claim = %v, %v", ok, err)
	}
	if c2.ID != "forW2" {
		t.Fatalf("w2 claimed %s; want forW2", c2.ID)
	}
	c.Release()
	c2.Release()
}

func TestOwnerRendezvousProperties(t *testing.T) {
	peers := []string{"w1", "w2", "w3"}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key%d", i)
		o := Owner(key, peers)
		if o2 := Owner(key, []string{"w3", "w1", "w2"}); o2 != o {
			t.Fatalf("Owner(%q) depends on peer order: %s vs %s", key, o, o2)
		}
		counts[o]++
	}
	for _, p := range peers {
		if counts[p] == 0 {
			t.Fatalf("owner distribution skipped %s entirely: %v", p, counts)
		}
	}
	// Dropping a peer only moves that peer's keys (HRW stability).
	moved := 0
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key%d", i)
		before := Owner(key, peers)
		after := Owner(key, []string{"w1", "w2"})
		if before != "w3" && before != after {
			t.Fatalf("key %q moved from surviving owner %s to %s", key, before, after)
		}
		if before == "w3" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys owned by the dropped peer; test vacuous")
	}
}
