package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Trace (the op index); Parent 0 marks a root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records one op's spans in memory. A nil tracer records
// nothing, so untraced ops run the same code.
type tracer struct {
	origin time.Time
	trace  int
	mu     sync.Mutex
	spans  []span
}

func newTracer(origin time.Time, trace int) *tracer {
	return &tracer{origin: origin, trace: trace}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name, attr string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	return t.add(name, attr, parent, now, 0)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span with explicit times (ns since the origin).
func (t *tracer) add(name, attr string, parent int, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name, Attr: attr, Start: start, End: end})
	return id
}

// at converts a wall-clock time, such as a server-side event
// timestamp, to ns since the origin.
func (t *tracer) at(x time.Time) int64 {
	if t == nil {
		return 0
	}
	return x.Round(0).Sub(t.origin.Round(0)).Nanoseconds()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps each span id of one trace to its self time: its
// duration minus the part of its interval that the union of its
// children covers.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi] that the union of the intervals
// covers.
func covered(lo, hi int64, ivs []span) int64 {
	type iv struct{ a, b int64 }
	var clipped []iv
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			clipped = append(clipped, iv{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total int64
	var curA, curB int64
	for i, c := range clipped {
		switch {
		case i == 0:
			curA, curB = c.a, c.b
		case c.a > curB:
			total += curB - curA
			curA, curB = c.a, c.b
		case c.b > curB:
			curB = c.b
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// attribute splits one trace's wall time among span names. Each
// instant goes to the spans running their own code then (running, with
// no child running), shared equally when several run concurrently, so
// the attributions of a trace sum to the wall time its spans cover.
// Without concurrency a span's attribution is its self time.
func attribute(spans []span) map[string]int64 {
	var edges []int64
	for _, s := range spans {
		edges = append(edges, s.Start, s.End)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	out := make(map[string]int64)
	for k := 0; k+1 < len(edges); k++ {
		a, b := edges[k], edges[k+1]
		if b == a {
			continue
		}
		active := make(map[int]bool)
		for _, s := range spans {
			if s.Start <= a && s.End >= b {
				active[s.ID] = true
			}
		}
		busyParent := make(map[int]bool)
		for _, s := range spans {
			if active[s.ID] && s.Parent != 0 {
				busyParent[s.Parent] = true
			}
		}
		var leaves []string
		for _, s := range spans {
			if active[s.ID] && !busyParent[s.ID] {
				leaves = append(leaves, s.Name)
			}
		}
		for _, name := range leaves {
			out[name] += (b - a) / int64(len(leaves))
		}
	}
	return out
}

// byTrace groups spans by trace id.
func byTrace(spans []span) map[int][]span {
	out := make(map[int][]span)
	for _, s := range spans {
		out[s.Trace] = append(out[s.Trace], s)
	}
	return out
}

// writeSpans writes spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
