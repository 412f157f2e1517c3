package artifact

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// openQueue opens a disk-backed store's queue; dir "" means a fresh
// temp directory.
func openQueue(t *testing.T, dir string) *Queue {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Queue()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestQueueRecordsRoundTrip writes a pending and a dead-letter record
// through one store handle and reads them back through another:
// every field, payload bytes included, comes back as written.
func TestQueueRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	q := openQueue(t, dir)
	aff := "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"
	payload := []byte("{\"experiment\":\"GOFFGRATCH\"}\x00\xff\n")
	if err := q.Enqueue("job", aff, payload); err != nil {
		t.Fatal(err)
	}
	c, ok, err := openQueue(t, dir).Claim("w1", nil)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if c.ID != "job" || c.Affinity != aff || !bytes.Equal(c.Payload, payload) {
		t.Fatalf("claimed %+v; want the enqueued record", c.Job)
	}
	before := time.Now()
	if err := c.Fail("cause with \"quotes\" and\nnewline", 2); err != nil {
		t.Fatal(err)
	}
	fj, ok := openQueue(t, dir).Failed("job")
	if !ok {
		t.Fatal("dead-letter record missing")
	}
	if fj.ID != "job" || fj.Error != "cause with \"quotes\" and\nnewline" || fj.Attempts != 2 ||
		!bytes.Equal(fj.Payload, payload) || fj.At.Before(before) || fj.At.After(time.Now()) {
		t.Fatalf("dead-letter record = %+v", fj)
	}
}

// TestDeadLetterUnreadablePending: a pending file whose frame or JSON
// does not decode is dead-lettered by the next claim, with its cause
// and raw bytes, instead of sitting in pending forever.
func TestDeadLetterUnreadablePending(t *testing.T) {
	q := openQueue(t, "")
	bad := map[string][]byte{
		"bad-frame": []byte("garbage"),
		"bad-json":  frame([]byte("not json")),
	}
	for id, raw := range bad {
		if err := os.WriteFile(filepath.Join(q.dir, "pending", id), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Enqueue("good", "aff", []byte("body")); err != nil {
		t.Fatal(err)
	}
	c, ok, err := q.Claim("w1", nil)
	if err != nil || !ok || c.ID != "good" {
		t.Fatalf("claim = %+v, %v, %v; want the readable job", c, ok, err)
	}
	c.Release()
	if got := q.Pending(); got != 1 {
		t.Fatalf("Pending = %d; want only the readable job", got)
	}
	if got := q.FailedCount(); got != 2 {
		t.Fatalf("FailedCount = %d; want both unreadable records", got)
	}
	for id, raw := range bad {
		fj, ok := q.Failed(id)
		if !ok || !strings.HasPrefix(fj.Error, "unreadable pending record: ") || !bytes.Equal(fj.Payload, raw) {
			t.Fatalf("Failed(%s) = %+v, %v; want the cause and the raw bytes", id, fj, ok)
		}
	}
}

// TestDeadLetterSkipsStagingAndUnreadFiles: only a record whose bytes
// were read and do not decode is dead-lettered. A write's staging file
// (empty until its writer fills and renames it) and a file the read
// itself fails on stay where they are, so concurrent Enqueue and
// Claim never refuse a job or dead-letter a bogus one.
func TestDeadLetterSkipsStagingAndUnreadFiles(t *testing.T) {
	q := openQueue(t, "")
	staging := filepath.Join(q.dir, "pending", stagingPrefix+"x")
	if err := os.WriteFile(staging, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A symlink to a directory is listed as a file, and reading it
	// fails with EISDIR rather than ENOENT.
	unread := filepath.Join(q.dir, "pending", "unread")
	if err := os.Symlink(t.TempDir(), unread); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue("good", "aff", []byte("body")); err != nil {
		t.Fatal(err)
	}
	c, ok, err := q.Claim("w1", nil)
	if err != nil || !ok || c.ID != "good" {
		t.Fatalf("claim = %+v, %v, %v; want the readable job", c, ok, err)
	}
	if err := c.Done(nil); err != nil {
		t.Fatal(err)
	}
	if c, ok, err := q.Claim("w1", nil); ok || err != nil {
		t.Fatalf("claim = %+v, %v, %v; want nothing claimable", c, ok, err)
	}
	if got := q.FailedCount(); got != 0 {
		t.Fatalf("FailedCount = %d; want 0", got)
	}
	for _, path := range []string{staging, unread} {
		if _, err := os.Lstat(path); err != nil {
			t.Fatalf("%s: %v; want it left in place", filepath.Base(path), err)
		}
	}

	// Claims racing Enqueue's staged writes.
	const n = 100
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := q.Enqueue(fmt.Sprintf("job%03d", i), "aff", []byte("body")); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for done := 0; done < n; {
		c, ok, err := q.Claim("w1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("Enqueue: %v", err)
				}
				errc <- nil
			default:
			}
			continue
		}
		if err := c.Done(nil); err != nil {
			t.Fatal(err)
		}
		done++
	}
	if err := <-errc; err != nil {
		t.Fatalf("Enqueue: %v", err)
	}
	if got := q.FailedCount(); got != 0 {
		t.Fatalf("FailedCount = %d after concurrent Enqueue and Claim; want 0", got)
	}
}

// TestDeadLetterUnreadableRecordStaysTerminal: a dead-letter record
// that no longer decodes still makes its id terminal, so Enqueue does
// not run the poison pill again.
func TestDeadLetterUnreadableRecordStaysTerminal(t *testing.T) {
	q := openQueue(t, "")
	if err := q.Enqueue("poison", "aff", []byte("body")); err != nil {
		t.Fatal(err)
	}
	c, ok, err := q.Claim("w1", nil)
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	if err := c.Fail("boom", 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(q.dir, "failed", "poison")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fj, ok := q.Failed("poison")
	if !ok || fj.ID != "poison" || fj.Error != "unreadable dead-letter record" {
		t.Fatalf("Failed = %+v, %v; want the unreadable-record stand-in", fj, ok)
	}
	if err := q.Enqueue("poison", "aff", []byte("body")); err != nil {
		t.Fatal(err)
	}
	if got := q.Pending(); got != 0 {
		t.Fatalf("Pending = %d after re-enqueue; want 0 (the id is terminal)", got)
	}
	if got := q.FailedCount(); got != 1 {
		t.Fatalf("FailedCount = %d; want 1", got)
	}
}

// TestParentQueueRecords reads queue records written by the store's
// previous binary record codec (testdata/parent-records, framed files
// Queue.Enqueue and Claimed.Fail wrote at commit 1f0e32d): the pending
// job is dead-lettered with its cause and raw bytes, and the
// dead-lettered id stays terminal.
func TestParentQueueRecords(t *testing.T) {
	q := openQueue(t, "")
	pending, err := os.ReadFile("testdata/parent-records/pending")
	if err != nil {
		t.Fatal(err)
	}
	failed, err := os.ReadFile("testdata/parent-records/failed")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(q.dir, "pending", "parent-pending"), pending, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(q.dir, "failed", "parent-failed"), failed, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, ok, err := q.Claim("w1", nil); ok || err != nil {
		t.Fatalf("claim = %+v, %v, %v; want nothing runnable", c, ok, err)
	}
	fj, ok := q.Failed("parent-pending")
	if !ok || !strings.HasPrefix(fj.Error, "unreadable pending record: ") || !bytes.Equal(fj.Payload, pending) {
		t.Fatalf("Failed(parent-pending) = %+v, %v; want dead-lettered with its cause", fj, ok)
	}
	if q.Pending() != 0 {
		t.Fatalf("Pending = %d; want 0", q.Pending())
	}
	fj, ok = q.Failed("parent-failed")
	if !ok || fj.Error != "unreadable dead-letter record" {
		t.Fatalf("Failed(parent-failed) = %+v, %v; want terminal", fj, ok)
	}
	if err := q.Enqueue("parent-failed", "aff", []byte("body")); err != nil {
		t.Fatal(err)
	}
	if q.Pending() != 0 {
		t.Fatal("Enqueue resurrected a dead-lettered parent record")
	}
}
