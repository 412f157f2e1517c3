package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// hardCap ends a timed phase regardless of its minimum op count, well
// inside the run's time limit.
const hardCap = 120 * time.Second

// opRecord is one op of the timed phase.
type opRecord struct {
	Index  int     `json:"index"`
	Ms     float64 `json:"ms"`
	Traced bool    `json:"traced,omitempty"`
	// Digest is the sha-256 of the op's output bytes.
	Digest string `json:"digest,omitempty"`
	// Name identifies the scenario a service job submitted; repeats of
	// one scenario must return identical bytes.
	Name string `json:"name,omitempty"`
	Err  string `json:"error,omitempty"`
	// Counts are the op's layer counters (lasso fits, search
	// evaluations, stage durations from job events, ...).
	Counts map[string]float64 `json:"counts,omitempty"`
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// harness is one workload ready to run: set up, with its cold first op
// done.
type harness struct {
	// clients is the number of closed-loop callers.
	clients int
	// op performs op i; t is nil for untraced ops.
	op func(ctx context.Context, i int, t *tracer) opRecord
	// round, when positive, is how many ops run between barriers: every
	// op of a round completes before the next round's first op starts.
	round int
	// rssOps, when positive, is how many ops complete before max_rss_mb
	// is read (otherwise it is read at the phase's end). A workload whose
	// memory grows with every op it serves is then charged for the same
	// work on a fast run as on a slow one.
	rssOps int
	// counters, when set, snapshots cumulative system counters; the
	// layer metrics use their change over the timed phase.
	counters func() map[string]float64
	// layers derives the per-layer metrics from the timed phase.
	layers func(recs []opRecord, spans []span, delta map[string]float64) map[string]float64
	// reference recomputes op i's output digest in-process on a fresh
	// session at parallelism 1.
	reference func(ctx context.Context, i int) (string, error)
	// refKey maps op i to the input it shares with other ops, so one
	// reference digest checks them all.
	refKey func(i int) int
	close  func()
}

// phase is the outcome of a timed phase.
type phase struct {
	recs  []opRecord
	spans []span
	wall  time.Duration
	cpu   time.Duration
	// rssMB is the process's peak resident set size after h.rssOps ops,
	// or at the phase's end.
	rssMB float64
	delta map[string]float64
}

// timedPhase runs closed-loop ops until cfg.measure has passed and at
// least cfg.minOps have completed; the minimum keeps p50_ms computable
// on a machine slower than the one the benchmark was calibrated on.
// With cfg.trace, every fifth op is traced.
func timedPhase(ctx context.Context, h *harness, cfg config) *phase {
	var before map[string]float64
	if h.counters != nil {
		before = h.counters()
	}
	p := &phase{}
	var mu sync.Mutex
	var completed atomic.Int64
	origin, cpu0 := time.Now(), cpuTime()
	done := func() bool {
		elapsed := time.Since(origin)
		return elapsed >= hardCap || (elapsed >= cfg.measure && completed.Load() >= int64(cfg.minOps))
	}
	next := 0
	for !done() {
		limit := -1
		if h.round > 0 {
			limit = next + h.round
		}
		closedLoop(h.clients, &next, limit, done, func(i int) {
			var t *tracer
			if cfg.trace && i%5 == 0 {
				t = newTracer(origin, i)
			}
			rec := h.op(ctx, i, t)
			rec.Index, rec.Traced = i, t != nil
			mu.Lock()
			p.recs = append(p.recs, rec)
			p.spans = append(p.spans, t.all()...)
			if len(p.recs) == h.rssOps {
				p.rssMB = maxRSSMB()
			}
			mu.Unlock()
			completed.Add(1)
		})
	}
	p.wall, p.cpu = time.Since(origin), cpuTime()-cpu0
	if p.rssMB == 0 {
		p.rssMB = maxRSSMB()
	}
	sort.Slice(p.recs, func(i, j int) bool { return p.recs[i].Index < p.recs[j].Index })
	if h.counters != nil {
		after := h.counters()
		p.delta = make(map[string]float64, len(after))
		for k, v := range after {
			p.delta[k] = v - before[k]
		}
	}
	return p
}

// closedLoop runs op from clients goroutines, each taking the next
// index only after its previous op returned, until done reports true or
// the index reaches limit (limit < 0: no limit).
func closedLoop(clients int, next *int, limit int, done func() bool, op func(i int)) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if done() || (limit >= 0 && *next >= limit) {
					mu.Unlock()
					return
				}
				i := *next
				*next++
				mu.Unlock()
				op(i)
			}
		}()
	}
	wg.Wait()
}

// latencies returns the successful ops' latencies, optionally only the
// traced or only the untraced ones.
func latencies(recs []opRecord, keep func(opRecord) bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Err == "" && (keep == nil || keep(r)) {
			out = append(out, r.Ms)
		}
	}
	return out
}

func traced(r opRecord) bool   { return r.Traced }
func untraced(r opRecord) bool { return !r.Traced }

// traceOverhead is the traced ops' median latency over the untraced
// ops' median, minus one.
func traceOverhead(recs []opRecord) float64 {
	return ratio(median(latencies(recs, traced)), median(latencies(recs, untraced))) - 1
}

// sumCount sums one counter over the ops that keep accepts.
func sumCount(recs []opRecord, name string, keep func(opRecord) bool) float64 {
	var sum float64
	for _, r := range recs {
		if keep == nil || keep(r) {
			sum += r.Counts[name]
		}
	}
	return sum
}
