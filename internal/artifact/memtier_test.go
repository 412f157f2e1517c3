package artifact

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

func TestMemTierLRUEviction(t *testing.T) {
	c := &memTier{max: 2}
	c.put("a", []byte("a"))
	c.put("b", []byte("b"))
	if _, ok := c.get("a"); !ok { // bump a → b is now least recent
		t.Fatal("a missing")
	}
	c.put("c", []byte("c"))
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c"} {
		if data, ok := c.get(k); !ok || string(data) != k {
			t.Fatalf("%s missing after eviction round", k)
		}
	}
	if c.order.Len() != 2 || c.size() != 2 {
		t.Fatalf("len = %d, bytes = %d; want 2, 2", c.order.Len(), c.size())
	}
}

func TestMemTierRefreshKeepsSingleEntry(t *testing.T) {
	c := &memTier{max: 2}
	c.put("a", []byte("a"))
	c.put("a", []byte("a2"))
	if c.order.Len() != 1 || c.size() != 2 {
		t.Fatalf("len = %d, bytes = %d after refresh; want 1, 2", c.order.Len(), c.size())
	}
	data, ok := c.get("a")
	if !ok || string(data) != "a2" {
		t.Fatalf("refresh lost the newer payload: %q", data)
	}
}

func TestMemTierManyEvictionsStayBounded(t *testing.T) {
	c := &memTier{max: 32}
	for i := 0; i < 100; i++ {
		c.put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("%04d", i)))
	}
	if c.order.Len() != 8 || c.size() != 32 {
		t.Fatalf("len = %d, bytes = %d; want 8, 32", c.order.Len(), c.size())
	}
	// The eight most recent survive.
	for i := 92; i < 100; i++ {
		if _, ok := c.get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("recent key k%d evicted", i)
		}
	}
}

// TestMemoryOnlyStore pins the Open("") contract: every op is served
// from the memory tier, locks are in-process, there is no queue, the
// store never reports degraded, and nothing touches the filesystem.
func TestMemoryOnlyStore(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()
	if err := os.Chdir(empty); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	s, err := Open("")
	if err != nil {
		t.Fatalf("Open(\"\"): %v", err)
	}
	if s.Degraded() {
		t.Fatal("memory-only store reports degraded")
	}
	if err := s.Put(ClassOutcome, "k", []byte("v")); err != nil {
		t.Fatalf("put: %v", err)
	}
	if got, ok := s.Get(ClassOutcome, "k"); !ok || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("get = %q, %v", got, ok)
	}
	if _, ok := s.Get(ClassOutcome, "absent"); ok {
		t.Fatal("get of an absent key hit")
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.MemBytes != 1 || st.Bytes != 0 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 1 put, 1 mem byte, 0 disk bytes", st)
	}

	release, err := s.Lock(context.Background(), "scenario-x")
	if err != nil {
		t.Fatalf("lock: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.Lock(ctx, "scenario-x"); err == nil {
		t.Fatal("Lock acquired a held lock")
	}
	release()

	if _, err := s.Queue(); !errors.Is(err, ErrMemoryOnly) {
		t.Fatalf("Queue() error = %v; want ErrMemoryOnly", err)
	}
	if s.Degraded() {
		t.Fatal("memory-only store became degraded")
	}
	if entries, err := os.ReadDir(empty); err != nil || len(entries) != 0 {
		t.Fatalf("memory-only store touched the filesystem: %v, %v", entries, err)
	}
}

// TestDegradedMemTierByteBound: a degraded store parks every put in
// its memory tier, so the tier must hold at most memTierMaxBytes of
// payload however many program-sized blobs arrive, and still serve
// the most recent one.
func TestDegradedMemTierByteBound(t *testing.T) {
	s := openTest(t, WithBreaker(0, time.Hour)) // no half-open probe mid-test
	s.brk.trip()
	const size = 800 << 10
	n := int(memTierMaxBytes/size) + 8
	// Payloads are overlapping windows of one buffer: distinct
	// contents without n separate allocations.
	buf := make([]byte, size+n)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	payload := func(i int) []byte { return buf[i : i+size] }
	for i := 0; i < n; i++ {
		if err := s.Put(ClassProgram, fmt.Sprintf("p%d", i), payload(i)); err != nil {
			t.Fatalf("degraded put %d: %v", i, err)
		}
	}
	if got := s.Stats().MemBytes; got > memTierMaxBytes {
		t.Fatalf("memory tier holds %d bytes; cap %d", got, memTierMaxBytes)
	}
	if got, ok := s.Get(ClassProgram, fmt.Sprintf("p%d", n-1)); !ok || !bytes.Equal(got, payload(n-1)) {
		t.Fatalf("most recent payload not served (ok=%v)", ok)
	}
	if _, ok := s.Get(ClassProgram, "p0"); ok {
		t.Fatal("oldest payload survived past the byte cap")
	}
}
