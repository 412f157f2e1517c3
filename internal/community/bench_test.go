package community

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/climate-rca/rca/internal/graph"
)

// clusteredGraph builds k dense clusters of size s with sparse
// inter-cluster bridges, symmetrized — the shape G-N is good at.
func clusteredGraph(k, s int, seed int64) *graph.Digraph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(k * s)
	g.AddNodes(k * s)
	for c := 0; c < k; c++ {
		off := c * s
		for i := 0; i < 3*s; i++ {
			u, v := off+rng.Intn(s), off+rng.Intn(s)
			if u != v {
				g.AddEdge(u, v)
				g.AddEdge(v, u)
			}
		}
		if c > 0 {
			u, v := (c-1)*s+rng.Intn(s), off+rng.Intn(s)
			g.AddEdge(u, v)
			g.AddEdge(v, u)
		}
	}
	return g
}

func BenchmarkEdgeBetweenness(b *testing.B) {
	g := clusteredGraph(4, 60, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeBetweenness(g)
	}
}

// BenchmarkEdgeBetweennessFlat measures the CSR kernel alone (frozen
// once, no map materialization) at full parallelism.
func BenchmarkEdgeBetweennessFlat(b *testing.B) {
	g := clusteredGraph(4, 60, 1)
	csr := graph.Freeze(g)
	par := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeBetweennessFlat(csr, par)
	}
}

func BenchmarkGirvanNewmanOneRound(b *testing.B) {
	g := clusteredGraph(3, 50, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GirvanNewman(g, 1, 3)
	}
}

// BenchmarkGirvanNewmanOneRoundPar is the same round with the worker
// pool at GOMAXPROCS; output is bit-identical to the sequential bench.
func BenchmarkGirvanNewmanOneRoundPar(b *testing.B) {
	g := clusteredGraph(3, 50, 2)
	par := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GirvanNewmanPar(g, 1, 3, par)
	}
}

func BenchmarkModularity(b *testing.B) {
	g := clusteredGraph(8, 100, 4)
	comms := Louvain(g, 0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Modularity(g, comms)
	}
}
