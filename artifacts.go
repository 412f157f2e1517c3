package rca

import (
	"time"

	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/experiments"
)

// ArtifactStore is a content-addressed on-disk artifact store shared
// by any number of sessions and processes: compiled bytecode programs,
// generated corpora, coverage-filtered metagraphs and finished
// outcomes are stored once under their scenario fingerprints
// (sha-256 path layout, atomic writes, integrity-verified reads,
// size-capped LRU eviction) and rebuilt at most once across every
// process on the same directory via lock-file singleflight. See
// OpenArtifactStore and WithArtifacts; rcad's -store flag wires one
// through the daemon for warm restarts and multi-worker sharing.
type ArtifactStore = artifact.Store

// ArtifactStoreStats is a snapshot of store counters (hits, misses,
// evictions, current bytes).
type ArtifactStoreStats = artifact.Stats

// OpenArtifactStore opens (creating if needed) an artifact store
// rooted at dir, or a memory-only store (bounded in-memory tier, no
// shared queue) when dir is "".
func OpenArtifactStore(dir string, opts ...ArtifactStoreOption) (*ArtifactStore, error) {
	return artifact.Open(dir, opts...)
}

// ArtifactStoreOption configures OpenArtifactStore.
type ArtifactStoreOption = artifact.Option

// WithStoreMaxBytes caps the store's total on-disk payload bytes;
// puts evict least-recently-accessed blobs beyond the cap (default
// 512 MiB).
func WithStoreMaxBytes(n int64) ArtifactStoreOption { return artifact.WithMaxBytes(n) }

// WithStoreLockStale sets the age after which another process may
// steal a build lock or queue lease (the holder is presumed crashed;
// default 2 minutes).
func WithStoreLockStale(d time.Duration) ArtifactStoreOption { return artifact.WithLockStale(d) }

// WithStoreBreaker tunes the store's write-path circuit breaker:
// threshold consecutive I/O failures trip it into degraded mode
// (in-memory pass-through), and every cooldown interval one half-open
// probe retries the disk (defaults 5 failures / 5s).
func WithStoreBreaker(threshold int, cooldown time.Duration) ArtifactStoreOption {
	return artifact.WithBreaker(threshold, cooldown)
}

// WithArtifacts attaches an artifact store to a session: corpus
// builds, compiled bytecode programs and compiled metagraphs gain a
// write-through/read-back disk layer keyed by the session's scenario
// fingerprints, so a fresh process pointed at a warm store skips
// generation, compilation and the coverage trace, and concurrent
// processes sharing the store build each artifact exactly once.
func WithArtifacts(store *ArtifactStore) Option { return experiments.WithArtifacts(store) }
