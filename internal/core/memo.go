package core

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/climate-rca/rca/internal/centrality"
	"github.com/climate-rca/rca/internal/community"
	"github.com/climate-rca/rca/internal/graph"
)

// Memo caches the sampler-independent half of a refinement iteration
// (steps 1, 5 and 6 of Algorithm 5.4: the largest SCC, the communities
// and the top-m sampling sites) by the subgraph's exact content. The
// subgraph an iteration reaches is fixed by the code's dataflow and
// the selected outputs, not by the perturbation, so investigations on
// one code base keep reaching the same subgraphs; a Memo shared across
// them runs Girvan-Newman once per distinct subgraph.
//
// Keys are the full adjacency (node count, every out-list and every
// in-list in stored order) plus the options the analysis reads,
// compared byte for byte, so two different inputs never share an
// entry. Parallelism is not in the key: the kernels are bit-identical
// at every parallelism level. Concurrent misses on one key run the
// analysis once; the other callers wait for it. A Memo is safe for
// concurrent use and grows for its owner's lifetime.
type Memo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// memoEntry is one cached analysis; ready is closed once a is set.
type memoEntry struct {
	ready chan struct{}
	a     analysis
}

// analysis is one iteration's graph analysis in the subgraph's local
// ids. Cached values are shared by every caller and never mutated.
type analysis struct {
	largestSCC int
	comms      [][]int // step 5, largest first
	sampled    []int   // step 6, ascending
}

// NewMemo returns an empty Memo.
func NewMemo() *Memo {
	return &Memo{entries: make(map[string]*memoEntry)}
}

// Stats reports lookups answered from the memo (including callers that
// waited on a concurrent miss) and lookups that ran the analysis.
func (m *Memo) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// Len reports the number of distinct keys the memo holds.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// analyze returns g's analysis under opt, running it on a miss.
func (m *Memo) analyze(g *graph.Digraph, opt Options) *analysis {
	key := string(memoKey(g, opt))
	m.mu.Lock()
	e, ok := m.entries[key]
	if ok {
		m.mu.Unlock()
		m.hits.Add(1)
		<-e.ready
		return &e.a
	}
	e = &memoEntry{ready: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()
	m.misses.Add(1)
	e.a = analyze(g, opt)
	close(e.ready)
	return &e.a
}

// memoKey encodes everything analyze reads: g's adjacency in stored
// order (EigenvectorIn sums in-lists in that order, so it is part of
// the result's bits) and the analysis options. Every field is a
// varint or a length-prefixed run, so the encoding is unambiguous.
func memoKey(g *graph.Digraph, opt Options) []byte {
	n := g.NumNodes()
	key := make([]byte, 0, 2*n+4*g.NumEdges()+32)
	key = binary.AppendUvarint(key, uint64(n))
	lists := func(adj func(int) []int32) {
		for u := 0; u < n; u++ {
			l := adj(u)
			key = binary.AppendUvarint(key, uint64(len(l)))
			for _, v := range l {
				key = binary.AppendUvarint(key, uint64(v))
			}
		}
	}
	lists(g.Out)
	lists(g.In)
	for _, v := range []int{opt.TopM, opt.GNIterations, opt.MinCommunity} {
		key = binary.AppendVarint(key, int64(v))
	}
	for _, s := range []string{opt.Centrality, opt.CommunityMethod} {
		key = binary.AppendUvarint(key, uint64(len(s)))
		key = append(key, s...)
	}
	if opt.WholeGraphSampling {
		return append(key, 1)
	}
	return append(key, 0)
}

// analyze runs steps 1, 5 and 6 of one refinement iteration on g.
func analyze(g *graph.Digraph, opt Options) analysis {
	a := analysis{largestSCC: g.Condensation().LargestSCC}

	// Step 5: communities of the undirected view.
	if opt.WholeGraphSampling {
		all := make([]int, g.NumNodes())
		for i := range all {
			all[i] = i
		}
		a.comms = [][]int{all}
	} else {
		und := g.Undirected()
		if opt.CommunityMethod == "louvain" {
			a.comms = community.Louvain(und, 0, opt.MinCommunity)
		} else {
			a.comms = community.GirvanNewmanPar(und, opt.GNIterations, opt.MinCommunity, opt.Parallelism)
		}
	}

	// Step 6: centrality per community, top-m.
	for _, comm := range a.comms {
		cg, cmap := g.Subgraph(comm)
		scores := rankBy(opt.Centrality, cg, opt.Parallelism)
		for _, r := range centrality.TopK(scores, opt.TopM) {
			a.sampled = append(a.sampled, cmap[r.Node])
		}
	}
	sort.Ints(a.sampled)
	return a
}
