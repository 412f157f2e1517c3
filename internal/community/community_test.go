package community

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/climate-rca/rca/internal/graph"
)

// twoCliquesBridge builds two k-cliques joined by a single bridge edge,
// symmetrized. Returns the graph and the two expected communities.
func twoCliquesBridge(k int) (*graph.Digraph, [][]int) {
	g := graph.New(2 * k)
	g.AddNodes(2 * k)
	addClique := func(offset int) {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.AddEdge(offset+i, offset+j)
				g.AddEdge(offset+j, offset+i)
			}
		}
	}
	addClique(0)
	addClique(k)
	g.AddEdge(k-1, k)
	g.AddEdge(k, k-1)
	a := make([]int, k)
	b := make([]int, k)
	for i := 0; i < k; i++ {
		a[i] = i
		b[i] = k + i
	}
	return g, [][]int{a, b}
}

func TestEdgeBetweennessBridgeDominates(t *testing.T) {
	g, _ := twoCliquesBridge(4)
	eb := EdgeBetweenness(g)
	bridge := eb[[2]int32{3, 4}]
	for e, s := range eb {
		if e == ([2]int32{3, 4}) {
			continue
		}
		if s >= bridge {
			t.Fatalf("edge %v betweenness %v >= bridge %v", e, s, bridge)
		}
	}
	// Exact value: bridge carries all 4*4=16 cross pairs once.
	if math.Abs(bridge-16) > 1e-9 {
		t.Fatalf("bridge betweenness = %v; want 16", bridge)
	}
}

func TestEdgeBetweennessPathGraph(t *testing.T) {
	// Path a-b-c (undirected): edge (a,b) carries pairs {a-b, a-c} = 2.
	g := graph.New(3)
	g.AddNodes(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	eb := EdgeBetweenness(g)
	if math.Abs(eb[[2]int32{0, 1}]-2) > 1e-9 {
		t.Fatalf("eb(0,1) = %v; want 2", eb[[2]int32{0, 1}])
	}
}

func TestGirvanNewmanSplitsCliques(t *testing.T) {
	g, want := twoCliquesBridge(5)
	got := GirvanNewman(g, 1, 0)
	if len(got) != 2 {
		t.Fatalf("communities = %d; want 2: %v", len(got), got)
	}
	// Order: largest first, tie broken by first node; both size 5 so
	// community containing node 0 first.
	if !reflect.DeepEqual(got[0], want[0]) || !reflect.DeepEqual(got[1], want[1]) {
		t.Fatalf("got %v; want %v", got, want)
	}
}

func TestGirvanNewmanDoesNotMutateInput(t *testing.T) {
	g, _ := twoCliquesBridge(4)
	edges := g.NumEdges()
	GirvanNewman(g, 1, 0)
	if g.NumEdges() != edges {
		t.Fatalf("input mutated: %d -> %d edges", edges, g.NumEdges())
	}
}

func TestGirvanNewmanMinSize(t *testing.T) {
	g, _ := twoCliquesBridge(3)
	iso := g.AddNode() // singleton community
	_ = iso
	got := GirvanNewman(g, 1, 3)
	for _, c := range got {
		if len(c) < 3 {
			t.Fatalf("community below min size: %v", c)
		}
	}
}

func TestGirvanNewmanEmptyGraph(t *testing.T) {
	g := graph.New(0)
	if got := GirvanNewman(g, 3, 0); len(got) != 0 {
		t.Fatalf("empty graph communities = %v", got)
	}
}

func TestGirvanNewmanDeeper(t *testing.T) {
	// Three cliques in a chain; two G-N iterations should yield >= 3
	// communities.
	k := 4
	g := graph.New(3 * k)
	g.AddNodes(3 * k)
	clique := func(off int) {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.AddEdge(off+i, off+j)
				g.AddEdge(off+j, off+i)
			}
		}
	}
	clique(0)
	clique(k)
	clique(2 * k)
	g.AddEdge(k-1, k)
	g.AddEdge(k, k-1)
	g.AddEdge(2*k-1, 2*k)
	g.AddEdge(2*k, 2*k-1)
	got := GirvanNewman(g, 2, 0)
	if len(got) < 3 {
		t.Fatalf("after 2 iterations, %d communities: %v", len(got), got)
	}
}

func TestModularityCliquePartitionBeatsRandom(t *testing.T) {
	g, want := twoCliquesBridge(5)
	good := Modularity(g, want)
	// A deliberately bad partition mixing the cliques.
	bad := Modularity(g, [][]int{{0, 5, 1, 6}, {2, 7, 3, 8}, {4, 9}})
	if good <= bad {
		t.Fatalf("modularity good=%v <= bad=%v", good, bad)
	}
	if good <= 0 {
		t.Fatalf("clique partition modularity %v; want > 0", good)
	}
}

func TestModularityEmptyGraph(t *testing.T) {
	if q := Modularity(graph.New(0), nil); q != 0 {
		t.Fatalf("modularity = %v", q)
	}
}

// Property: G-N output is a partition of a subset of nodes (disjoint).
func TestGirvanNewmanDisjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g := graph.New(n)
		g.AddNodes(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
				g.AddEdge(v, u)
			}
		}
		comms := GirvanNewman(g, 1, 0)
		seen := make(map[int]bool)
		total := 0
		for _, c := range comms {
			for _, v := range c {
				if seen[v] {
					return false
				}
				seen[v] = true
				total++
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: modularity of any partition is within [-1, 1].
func TestModularityBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := graph.New(n)
		g.AddNodes(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
				g.AddEdge(v, u)
			}
		}
		comms := Louvain(g, 0, 0)
		q := Modularity(g, comms)
		return q >= -1.0001 && q <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
