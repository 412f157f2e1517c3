package artifact

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBreakerThreshold is how many consecutive write-path I/O
// failures trip the store into degraded mode.
const DefaultBreakerThreshold = 5

// DefaultBreakerCooldown is how long a tripped store waits between
// half-open probes of the disk.
const DefaultBreakerCooldown = 5 * time.Second

// breaker is the store's write-path circuit breaker. Closed (healthy)
// passes operations through to disk; K consecutive failures open it,
// and while open the store serves from its memory tier instead
// of surfacing errors. Every cooldown interval one caller wins the
// half-open probe slot and retries the real disk op; success closes
// the breaker and restores write-through.
type breaker struct {
	threshold int32
	cooldown  time.Duration

	fails   atomic.Int32
	opened  atomic.Bool
	probeAt atomic.Int64 // unixnano of the next allowed probe
	trips   atomic.Uint64
}

// failure records a write-path I/O error, tripping the breaker at the
// threshold.
func (b *breaker) failure() {
	if b.fails.Add(1) >= b.threshold {
		b.trip()
	}
}

// trip opens the breaker immediately (also used by Open when the
// store directory cannot even be created).
func (b *breaker) trip() {
	if b.opened.CompareAndSwap(false, true) {
		b.trips.Add(1)
		b.probeAt.Store(time.Now().Add(b.cooldown).UnixNano())
	}
}

// success records a healthy disk op, closing the breaker.
func (b *breaker) success() {
	b.fails.Store(0)
	b.opened.Store(false)
}

// degraded reports whether the breaker is open.
func (b *breaker) degraded() bool { return b.opened.Load() }

// allow reports whether the caller may touch the disk: always while
// closed; while open, exactly one caller per cooldown window wins the
// half-open probe (the CAS pushes the window forward so the losers
// stay on the in-memory path).
func (b *breaker) allow() bool {
	if !b.opened.Load() {
		return true
	}
	at := b.probeAt.Load()
	now := time.Now().UnixNano()
	if now < at {
		return false
	}
	return b.probeAt.CompareAndSwap(at, now+int64(b.cooldown))
}

// memTierMaxBytes bounds the memory tier's payload bytes: room for
// about 80 program-sized blobs (~800 KB) or tens of thousands of
// outcomes (~1 KB).
const memTierMaxBytes int64 = 64 << 20

// memTier is the store's in-memory tier: an LRU over payloads keyed
// by content address, bounded by payload bytes rather than entry
// count. A memory-only store serves every op from it; a disk-backed
// store parks puts in it when the disk fails or the breaker is open,
// and falls back to it on reads the disk cannot answer.
type memTier struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	order list.List                // front = most recently used
	items map[string]*list.Element // address → element holding *memEntry
}

// memEntry carries the address alongside the payload so eviction is
// self-contained.
type memEntry struct {
	key  string
	data []byte
}

// put inserts or refreshes a payload, then evicts least recently used
// entries until the tier is back under its byte cap (a payload larger
// than the whole cap is evicted with the rest).
func (c *memTier) put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*memEntry)
		c.bytes += int64(len(data) - len(e.data))
		e.data = data
		c.order.MoveToFront(el)
	} else {
		if c.items == nil {
			c.items = make(map[string]*list.Element)
		}
		c.items[key] = c.order.PushFront(&memEntry{key: key, data: data})
		c.bytes += int64(len(data))
	}
	for c.bytes > c.max {
		oldest := c.order.Back()
		e := c.order.Remove(oldest).(*memEntry)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.data))
	}
}

// get returns the payload for an address, bumping its recency.
func (c *memTier) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*memEntry).data, true
}

// size returns the payload bytes the tier holds.
func (c *memTier) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// memLocks replaces lock files in a memory-only or degraded store:
// in-process named mutexes with the same poll-under-context
// acquisition shape. Cross-process singleflight is lost while degraded — two daemons may
// duplicate a build — but duplicated builds are deterministic and
// content-addressed, so the trade is availability for efficiency,
// never correctness.
type memLocks struct {
	mu   sync.Mutex
	held map[string]bool
}

func (l *memLocks) acquire(ctx context.Context, name string, poll time.Duration) (func(), error) {
	for {
		if release, ok := l.tryAcquire(name); ok {
			return release, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}

func (l *memLocks) tryAcquire(name string) (func(), bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held == nil {
		l.held = make(map[string]bool)
	}
	if l.held[name] {
		return nil, false
	}
	l.held[name] = true
	return func() {
		l.mu.Lock()
		delete(l.held, name)
		l.mu.Unlock()
	}, true
}
