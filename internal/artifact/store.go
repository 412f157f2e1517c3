// Package artifact is the content-addressed on-disk artifact store
// that makes the pipeline's layered cache fingerprints (sourceKey ⊂
// buildKey ⊂ scenarioKey) durable identities instead of in-process map
// keys. Verdicts, search incumbents and finished outcomes are
// written once under sha-256-derived paths and shared by
// every process pointed at the same directory: a restarted rcad
// warm-starts from disk, and N rcad workers deduplicate builds across
// process boundaries through O_EXCL lock files (cross-process
// singleflight).
//
// Layout under the store root:
//
//	objects/<class>/<hh>/<hex64>   content blobs (hh = first address byte)
//	locks/<hex64>.lock             build locks (GetOrBuild singleflight)
//	queue/...                      shared work queue (see queue.go)
//
// Every blob carries a header with a payload digest; reads verify it
// and delete corrupt blobs, so torn writes or disk damage degrade to a
// cache miss and a clean rebuild, never an error surfaced to the
// pipeline. Writes are tmp+rename atomic. The store is size-capped:
// puts evict least-recently-accessed blobs (mtime is bumped to the
// access time on every hit) until the total is back under the cap.
//
// Every store has one bounded in-memory tier (an LRU over payloads,
// capped in bytes). Open("") opens a memory-only store that serves
// every op from it, never touches the filesystem and has no queue.
// A disk-backed store uses it as a fallback: a write-path circuit
// breaker guards against a disk that stops cooperating entirely, and
// after K consecutive I/O failures the store trips into degraded
// mode — puts land in the memory tier, gets fall back to it, and
// lock-file coordination is replaced by in-process locks — so the
// pipeline keeps producing (bit-identical) answers on a dead disk.
// Half-open probes retry the disk every cooldown interval and restore
// write-through when it recovers. The filesystem ops are threaded
// through the internal/fault plane (points "artifact.put" /
// "artifact.get"), making all of this testable on demand from a
// seeded chaos plan.
package artifact

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/climate-rca/rca/internal/fault"
)

// Artifact classes. The class is folded into the content address, so
// the same key never collides across classes.
const (
	// ClassOutcome stores finished investigation outcomes per scenarioKey.
	ClassOutcome = "outcome"
	// ClassVerdict stores UF-ECT failure rates per buildKey — the unit
	// of work the scenario search's branch-and-bound nodes share.
	ClassVerdict = "verdict"
	// ClassIncumbent stores a search's best-known solution per search
	// fingerprint, so concurrent workers prune against the global best.
	ClassIncumbent = "incumbent"
)

// blobMagic versions the on-disk blob framing, not the JSON records
// inside it: a record its reader cannot decode is handled by its class
// (a miss for blobs, a dead letter for pending jobs).
var blobMagic = []byte("RCAART1\n")

const digestLen = sha256.Size

// DefaultMaxBytes caps the store at 512 MiB unless overridden.
const DefaultMaxBytes int64 = 512 << 20

// DefaultLockStale is how old a lock file must be before another
// process may steal it (crashed-holder recovery).
const DefaultLockStale = 2 * time.Minute

// Stats is a snapshot of store counters. Hits/Misses/Evictions count
// since Open; Bytes is the current on-disk payload total and MemBytes
// the memory tier's. Degraded
// reports the circuit breaker's current state and Trips how many
// times it has opened since Open.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Puts      uint64
	Builds    uint64
	Steals    uint64
	Bytes     int64
	MemBytes  int64
	Degraded  bool
	Trips     uint64
}

// Store is a content-addressed artifact store rooted at a directory,
// or held in memory only when the directory is "". One directory may
// be shared by any number of Store handles across processes. The zero
// value is not usable; call Open.
type Store struct {
	dir       string
	maxBytes  int64
	lockStale time.Duration
	lockPoll  time.Duration

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	puts      atomic.Uint64
	builds    atomic.Uint64
	steals    atomic.Uint64
	bytes     atomic.Int64

	evictMu sync.Mutex // serializes in-process eviction scans

	// The write-path circuit breaker, the memory tier it fails over
	// to, and in-process locks replacing lock files while the store is
	// memory-only or the disk is refusing writes.
	brk    breaker
	mem    memTier
	mlocks memLocks
}

// Option configures Open.
type Option func(*Store)

// WithMaxBytes caps the total payload bytes kept on disk; puts evict
// least-recently-accessed blobs beyond it. n <= 0 keeps the default.
func WithMaxBytes(n int64) Option {
	return func(s *Store) {
		if n > 0 {
			s.maxBytes = n
		}
	}
}

// WithLockStale sets the age after which another process may steal a
// build lock (the holder is presumed dead). d <= 0 keeps the default.
func WithLockStale(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.lockStale = d
		}
	}
}

// WithBreaker tunes the write-path circuit breaker: threshold is the
// consecutive-failure count that trips the store into degraded mode,
// cooldown the interval between half-open disk probes. Non-positive
// values keep the defaults.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(s *Store) {
		if threshold > 0 {
			s.brk.threshold = int32(threshold)
		}
		if cooldown > 0 {
			s.brk.cooldown = cooldown
		}
	}
}

// Open opens (creating if needed) a store rooted at dir, or a
// memory-only store when dir is "". An uncreatable root — unwritable
// parent, a file where the directory should be — does not fail: the
// store opens pre-tripped into degraded mode (memory tier, in-process
// locks) and half-open probes restore disk persistence if the path
// becomes usable, so a daemon with a broken store directory serves
// requests instead of refusing to boot.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:       dir,
		maxBytes:  DefaultMaxBytes,
		lockStale: DefaultLockStale,
		lockPoll:  5 * time.Millisecond,
	}
	s.brk.threshold = DefaultBreakerThreshold
	s.brk.cooldown = DefaultBreakerCooldown
	s.mem.max = memTierMaxBytes
	for _, o := range opts {
		o(s)
	}
	if s.memoryOnly() {
		return s, nil
	}
	for _, sub := range []string{"objects", "locks"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			s.brk.trip()
			return s, nil
		}
	}
	s.bytes.Store(s.scanBytes())
	return s, nil
}

// Degraded reports whether the store's circuit breaker is open (disk
// bypassed, memory tier serving). A memory-only store is never
// degraded.
func (s *Store) Degraded() bool { return s.brk.degraded() }

// memoryOnly reports whether the store has no directory and serves
// every op from its memory tier.
func (s *Store) memoryOnly() bool { return s.dir == "" }

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Stats returns a counter snapshot.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
		Puts:      s.puts.Load(),
		Builds:    s.builds.Load(),
		Steals:    s.steals.Load(),
		Bytes:     s.bytes.Load(),
		MemBytes:  s.mem.size(),
		Degraded:  s.brk.degraded(),
		Trips:     s.brk.trips.Load(),
	}
}

// addr derives the content address of (class, key).
func addr(class, key string) string {
	h := sha256.New()
	h.Write([]byte(class))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Store) blobPath(class, a string) string {
	return filepath.Join(s.dir, "objects", class, a[:2], a)
}

// Get returns the payload stored for (class, key), or ok=false on a
// miss. Corrupt blobs are deleted and reported as misses; hits bump
// the blob's access time for LRU eviction. The memory tier backstops
// both failure modes: a blob the disk cannot produce (read error or
// integrity failure) is still a hit if a recent Put parked it in
// memory. A memory-only store reads the tier alone.
func (s *Store) Get(class, key string) ([]byte, bool) {
	a := addr(class, key)
	if s.memoryOnly() {
		return s.memGet(a)
	}
	path := s.blobPath(class, a)
	raw, err := os.ReadFile(path)
	if err == nil {
		// Chaos plane: a fired eio rule turns the read into an I/O
		// error; a corrupt rule hands back tampered bytes for the
		// integrity check below to catch.
		raw, err = fault.HookData(context.Background(), fault.PointArtifactGet, raw)
	}
	if err != nil {
		return s.memGet(a)
	}
	payload, err := unframe(raw)
	if err != nil {
		// Integrity failure: drop the blob so the next writer rebuilds
		// cleanly, and report a plain miss (or the memory tier's copy).
		if rmErr := os.Remove(path); rmErr == nil {
			s.bytes.Add(-int64(len(raw)))
		}
		return s.memGet(a)
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort LRU access stamp
	s.hits.Add(1)
	return payload, true
}

// memGet serves a read from the memory tier.
func (s *Store) memGet(a string) ([]byte, bool) {
	if data, ok := s.mem.get(a); ok {
		s.hits.Add(1)
		return data, true
	}
	s.misses.Add(1)
	return nil, false
}

// Put stores payload under (class, key) atomically (tmp+rename) and
// evicts past the size cap. Concurrent puts of the same content are
// harmless: last rename wins with identical bytes. Disk failures
// never lose the artifact: the payload lands in the memory tier and
// feeds the circuit breaker, which after enough consecutive
// failures stops touching the disk entirely (half-open probes restore
// write-through when it recovers). The returned error reports disk
// persistence only — callers already treat Put as best-effort. A
// memory-only store puts into the tier alone.
func (s *Store) Put(class, key string, payload []byte) error {
	a := addr(class, key)
	if s.memoryOnly() || !s.brk.allow() {
		s.mem.put(a, payload)
		s.puts.Add(1)
		return nil
	}
	err := s.diskPut(class, a, frame(payload))
	if err != nil {
		s.brk.failure()
		s.mem.put(a, payload)
		s.puts.Add(1)
		return err
	}
	s.brk.success()
	s.puts.Add(1)
	s.evict()
	return nil
}

// diskPut writes a framed blob via tmp+rename, threading the bytes
// through the artifact.put fault point (an eio rule fails the write,
// a corrupt rule tears it).
func (s *Store) diskPut(class, a string, framed []byte) error {
	framed, ferr := fault.HookData(context.Background(), fault.PointArtifactPut, framed)
	if ferr != nil {
		return fmt.Errorf("artifact: put %s: %w", class, ferr)
	}
	path := s.blobPath(class, a)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact: put %s: %w", class, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), stagingPrefix+"*")
	if err != nil {
		return fmt.Errorf("artifact: put %s: %w", class, err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(framed)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: put %s: write %v close %v", class, werr, cerr)
	}
	// If the blob already exists (another process won the build race),
	// the rename replaces identical content; adjust byte accounting by
	// the delta only.
	var existed int64
	if fi, err := os.Stat(path); err == nil {
		existed = fi.Size()
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("artifact: put %s: %w", class, err)
	}
	s.bytes.Add(int64(len(framed)) - existed)
	return nil
}

// GetOrBuild returns the payload for (class, key), building and
// storing it at most once across every process sharing the store: a
// miss takes the key's build lock, re-checks the store (another holder
// may have finished first), and only then runs build. The returned
// built flag reports whether THIS call ran the builder. Lock-file
// acquisition respects ctx; a crashed holder's lock is stolen after
// the stale timeout.
func (s *Store) GetOrBuild(ctx context.Context, class, key string, build func() ([]byte, error)) ([]byte, bool, error) {
	if data, ok := s.Get(class, key); ok {
		return data, false, nil
	}
	unlock, err := s.lock(ctx, addr(class, key))
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, err
		}
		// Locking failed for a reason other than cancellation (disk
		// refusing lock files). Cross-process singleflight is nice to
		// have, not load-bearing: builds are deterministic and
		// content-addressed, so proceed without the lock and accept a
		// possible duplicated build over a refused request.
		unlock = func() {}
	}
	defer unlock()
	if data, ok := s.Get(class, key); ok {
		return data, false, nil
	}
	data, err := build()
	if err != nil {
		return nil, false, err
	}
	s.builds.Add(1)
	if err := s.Put(class, key, data); err != nil {
		// The artifact is valid even if persisting it failed (disk
		// full, permissions): serve it, surface nothing.
		return data, true, nil
	}
	return data, true, nil
}

// frame wraps a payload with the store's integrity header.
func frame(payload []byte) []byte {
	out := make([]byte, 0, len(blobMagic)+digestLen+len(payload))
	out = append(out, blobMagic...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// unframe verifies and strips the integrity header.
func unframe(raw []byte) ([]byte, error) {
	if len(raw) < len(blobMagic)+digestLen || !bytes.Equal(raw[:len(blobMagic)], blobMagic) {
		return nil, errors.New("artifact: bad blob header")
	}
	want := raw[len(blobMagic) : len(blobMagic)+digestLen]
	payload := raw[len(blobMagic)+digestLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], want) {
		return nil, errors.New("artifact: payload digest mismatch")
	}
	return payload, nil
}

// scanBytes totals the on-disk blob sizes at Open.
func (s *Store) scanBytes() int64 {
	var total int64
	root := filepath.Join(s.dir, "objects")
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			total += fi.Size()
		}
		return nil
	})
	return total
}

// evict removes least-recently-accessed blobs until the store is back
// under its byte cap. Only one in-process evictor runs at a time;
// concurrent processes may race to delete the same blobs, which is
// benign (Remove of a missing file is skipped in accounting).
func (s *Store) evict() {
	if s.bytes.Load() <= s.maxBytes {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if s.bytes.Load() <= s.maxBytes {
		return
	}
	type blob struct {
		path  string
		size  int64
		atime time.Time
	}
	var blobs []blob
	var total int64
	root := filepath.Join(s.dir, "objects")
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		blobs = append(blobs, blob{path: path, size: fi.Size(), atime: fi.ModTime()})
		total += fi.Size()
		return nil
	})
	sort.Slice(blobs, func(i, j int) bool { return blobs[i].atime.Before(blobs[j].atime) })
	// Re-anchor accounting to the scan (handles external deletes).
	s.bytes.Store(total)
	for _, b := range blobs {
		if s.bytes.Load() <= s.maxBytes {
			break
		}
		if err := os.Remove(b.path); err == nil {
			s.bytes.Add(-b.size)
			s.evictions.Add(1)
		}
	}
}
