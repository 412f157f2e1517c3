// Package community implements community detection for the refinement
// procedure: Brandes edge betweenness, the Girvan-Newman algorithm the
// paper uses (§5.2), modularity scoring, and asynchronous label
// propagation as a fast alternative for ablation studies.
//
// All algorithms treat the input graph as undirected; callers pass the
// symmetrized view (graph.Digraph.Undirected), which the paper notes is
// equivalent to working on the weakly connected graph.
package community

import (
	"sort"

	"github.com/climate-rca/rca/internal/graph"
)

// EdgeBetweenness computes Brandes betweenness centrality for every
// undirected edge of g. g must be symmetric (u->v implies v->u); the
// result maps the canonical orientation (min(u,v), max(u,v)) to its
// score. BFS shortest paths are used, matching Girvan-Newman step 1.
//
// This is the map-shaped convenience wrapper; the kernel itself is
// EdgeBetweennessFlat, which works on a frozen graph.CSR snapshot and
// returns flat scores indexed by undirected edge id.
func EdgeBetweenness(g *graph.Digraph) map[[2]int32]float64 {
	return EdgeBetweennessPar(g, 1)
}

// EdgeBetweennessPar is EdgeBetweenness with a bounded worker pool.
// Results are bit-identical for every par, including 1.
func EdgeBetweennessPar(g *graph.Digraph, par int) map[[2]int32]float64 {
	csr := graph.Freeze(g)
	flat := EdgeBetweennessFlat(csr, par)
	scores := make(map[[2]int32]float64, len(flat))
	for id, s := range flat {
		u, v := csr.UndirEndpoints(int32(id))
		if u == v {
			continue // self-loops carry no shortest paths
		}
		scores[[2]int32{u, v}] = s
	}
	return scores
}

// EdgeBetweennessFlat computes Brandes edge betweenness on a frozen
// CSR snapshot of a symmetric graph, sharding BFS sources across a
// bounded worker pool. The result is indexed by undirected edge id.
// Accumulation uses per-shard flat []float64 accumulators merged in
// fixed shard order, so the result is bit-identical at every
// parallelism level.
func EdgeBetweennessFlat(c *graph.CSR, par int) []float64 {
	e := newEngine(c)
	e.compute(e.allNodes, e.aliveEdgesAll(), par)
	return e.score
}

// GirvanNewman runs `iterations` rounds of the Girvan-Newman procedure
// on the symmetric graph g. One round removes highest-betweenness edges
// until the number of connected components increases (the practical
// formulation of Newman & Girvan 2004 that the paper adopts). It
// returns the final communities as sorted node-id slices, largest
// first. minSize filters out communities smaller than minSize nodes
// (the paper omits communities smaller than 3-4 nodes); pass 0 to keep
// everything.
//
// The graph g is not modified: the procedure freezes a CSR snapshot
// once and tracks removals in a flat alive mask.
func GirvanNewman(g *graph.Digraph, iterations, minSize int) [][]int {
	return GirvanNewmanPar(g, iterations, minSize, 1)
}

// GirvanNewmanPar is GirvanNewman with a bounded worker pool sharding
// the betweenness recomputations. Results are bit-identical for every
// par, including 1.
func GirvanNewmanPar(g *graph.Digraph, iterations, minSize, par int) [][]int {
	if g.NumNodes() == 0 {
		return nil
	}
	e := newEngine(graph.Freeze(g))
	e.alive = make([]bool, e.csr.NumUndirEdges())
	for i := range e.alive {
		e.alive[i] = true
	}
	e.live = len(e.alive)
	for it := 0; it < iterations; it++ {
		if !splitOnce(e, par) {
			break // no edges left to remove
		}
	}
	return e.communities(minSize)
}

// splitOnce removes maximum-betweenness edges until a component splits.
// It reports false when the graph has no edges left to remove.
//
// Instead of re-scanning a score map and re-deriving the global
// component count per removal, the engine keeps a lazy max-heap over
// edge scores (score desc, canonical endpoints asc — the same ordered
// tie-break the map scan applied) and answers "did this removal split
// a component?" with a single incremental u→v reachability check over
// the alive mask. Betweenness is then recomputed only on the touched
// component (the other components' scores cannot change — the paper's
// step 3 note), with BFS sources restricted to the component's nodes.
func splitOnce(e *engine, par int) bool {
	if e.live == 0 {
		return false
	}
	edges := e.aliveEdgesAll()
	e.compute(e.allNodes, edges, par)
	var h gnHeap
	for _, id := range edges {
		u, v := e.csr.UndirEndpoints(id)
		h.push(gnEntry{score: e.score[id], u: u, v: v, id: id, gen: e.edgeGen[id]})
	}
	for len(h) > 0 {
		top := h.pop()
		if !e.alive[top.id] || top.gen != e.edgeGen[top.id] {
			continue // removed or rescored since it was pushed
		}
		e.alive[top.id] = false
		e.live--
		if top.u == top.v {
			continue // self-loop: removal cannot split anything
		}
		// Incremental connectivity: the removal splits a component iff
		// the removed edge's endpoints are no longer connected.
		comp := e.componentOf(top.u)
		if !e.marked(top.v) {
			return true
		}
		// Recompute betweenness restricted to the touched component:
		// sources are its nodes (ascending, matching the old subgraph
		// extraction order), scores overwrite its surviving edges, and
		// fresh heap entries supersede the stale generation.
		sorted := append([]int32(nil), comp...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		compEdges := e.aliveEdgesIn(sorted)
		e.compute(sorted, compEdges, par)
		for _, id := range compEdges {
			e.edgeGen[id]++
			u, v := e.csr.UndirEndpoints(id)
			h.push(gnEntry{score: e.score[id], u: u, v: v, id: id, gen: e.edgeGen[id]})
		}
	}
	return false
}

// Modularity computes Newman's modularity Q of the given partition of
// the symmetric graph g. communities holds disjoint node-id slices; any
// node not listed forms its own singleton community.
func Modularity(g *graph.Digraph, communities [][]int) float64 {
	n := g.NumNodes()
	label := make([]int, n)
	for i := range label {
		label[i] = -1
	}
	for ci, c := range communities {
		for _, v := range c {
			label[v] = ci
		}
	}
	next := len(communities)
	for i := range label {
		if label[i] == -1 {
			label[i] = next
			next++
		}
	}
	m2 := float64(g.NumEdges()) // symmetric graph: NumEdges == 2m
	if m2 == 0 {
		return 0
	}
	var q float64
	degSum := make([]float64, next)
	inSum := make([]float64, next)
	for u := 0; u < n; u++ {
		degSum[label[u]] += float64(g.OutDegree(u))
		for _, v := range g.Out(u) {
			if label[v] == label[u] {
				inSum[label[u]]++
			}
		}
	}
	for c := 0; c < next; c++ {
		q += inSum[c]/m2 - (degSum[c]/m2)*(degSum[c]/m2)
	}
	return q
}
