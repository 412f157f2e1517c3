package artifact

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// lock acquires the named store-wide lock file (O_CREATE|O_EXCL, so
// exactly one process holds it) and returns its release function.
// While another process holds the lock, acquisition polls; a lock
// older than the stale timeout is presumed orphaned by a crashed
// holder and stolen. ctx cancels the wait. A memory-only store takes
// in-process locks, and so does a degraded one: cross-process
// exclusion is lost but deterministic content-addressed builds make
// duplication benign.
func (s *Store) lock(ctx context.Context, name string) (func(), error) {
	if s.memoryOnly() || s.brk.degraded() {
		return s.mlocks.acquire(ctx, name, s.lockPoll)
	}
	path := filepath.Join(s.dir, "locks", name+".lock")
	content := []byte(fmt.Sprintf("%d\n", os.Getpid()))
	for {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			_, _ = f.Write(content)
			_ = f.Close()
			return func() { _ = os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			// The disk is refusing lock files; count it against the
			// breaker and fall back to in-process exclusion.
			s.brk.failure()
			return s.mlocks.acquire(ctx, name, s.lockPoll)
		}
		// Held elsewhere. Steal it if the holder looks dead.
		if fi, err := os.Stat(path); err == nil && time.Since(fi.ModTime()) > s.lockStale {
			if os.Remove(path) == nil {
				s.steals.Add(1)
			}
			continue
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(s.lockPoll):
		}
	}
}

// Lock exposes the store's named-lock primitive for coordination
// beyond GetOrBuild — rcad uses it to lease scenarios so two workers
// sharing a store never run the same investigation concurrently.
// Names are sanitized by hashing at the call sites; callers pass
// path-safe strings.
func (s *Store) Lock(ctx context.Context, name string) (release func(), err error) {
	return s.lock(ctx, name)
}
