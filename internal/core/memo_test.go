package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/climate-rca/rca/internal/graph"
)

// randomClustered builds a seeded random digraph of 3-5 dense clusters
// joined by sparse bridges, inserting edges in shuffled order so the
// in-lists are not sorted. Node i maps to metagraph id 1000+3i.
func randomClustered(seed int64) (*graph.Digraph, []int, []int) {
	rng := rand.New(rand.NewSource(seed))
	k := 3 + rng.Intn(3)
	size := 10 + rng.Intn(8)
	n := k * size
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			p := 0.01
			if u/size == v/size {
				p = 0.35
			}
			if rng.Float64() < p {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g := graph.New(n)
	g.AddNodes(n)
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 1000 + 3*i
	}
	return g, ids, []int{ids[rng.Intn(n)]}
}

// memoVariants are the option sets the memo tests refine under: the
// paper defaults and every option the key holds, varied.
var memoVariants = []Options{
	{SmallEnough: 5},
	{SmallEnough: 5, TopM: 3},
	{SmallEnough: 5, Centrality: "pagerank"},
	{SmallEnough: 5, CommunityMethod: "louvain"},
	{SmallEnough: 5, MinCommunity: 6, GNIterations: 2},
	{SmallEnough: 5, WholeGraphSampling: true},
}

// TestRefineMemoWarmMatchesCold pins that a memo hit is observationally
// identical to a miss: on seeded random digraphs under every option
// variant, Refine through a memo warmed by an identical earlier call
// returns exactly the Result of a cold call (nil memo), and the warm
// call runs no analysis of its own.
func TestRefineMemoWarmMatchesCold(t *testing.T) {
	var analyzed uint64
	for seed := int64(1); seed <= 8; seed++ {
		for vi, base := range memoVariants {
			g, ids, bug := randomClustered(seed)
			sampler := ReachabilitySampler(remap(g, ids), bug)
			cold, err := Refine(g, ids, sampler, bug, base)
			if err != nil {
				t.Fatal(err)
			}
			opt := base
			opt.Memo = NewMemo()
			first, err := Refine(g, ids, sampler, bug, opt)
			if err != nil {
				t.Fatal(err)
			}
			h0, m0 := opt.Memo.Stats()
			warm, err := Refine(g, ids, sampler, bug, opt)
			if err != nil {
				t.Fatal(err)
			}
			h1, m1 := opt.Memo.Stats()
			if h0 != 0 || m1 != m0 || h1 != m0 || uint64(opt.Memo.Len()) != m0 {
				t.Fatalf("seed %d variant %d: stats after cold call (%d hits, %d misses), after warm call (%d, %d), %d keys",
					seed, vi, h0, m0, h1, m1, opt.Memo.Len())
			}
			analyzed += m0
			if !reflect.DeepEqual(first, cold) || !reflect.DeepEqual(warm, cold) {
				t.Fatalf("seed %d variant %d: memoized refinement diverges:\ncold  %+v\nfirst %+v\nwarm  %+v",
					seed, vi, cold, first, warm)
			}
		}
	}
	if analyzed == 0 {
		t.Fatal("no iteration reached the analysis; the test graphs are too small")
	}
}

// TestMemoSingleflight starts eight identical refinements at once on
// one memo: each distinct subgraph is analyzed exactly once, every
// other lookup waits for that run, and all eight Results agree.
func TestMemoSingleflight(t *testing.T) {
	const callers = 8
	g, ids, bug := randomClustered(5)
	sampler := ReachabilitySampler(remap(g, ids), bug)
	opt := Options{SmallEnough: 5, Memo: NewMemo()}
	results := make([]*Result, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _ = Refine(g, ids, sampler, bug, opt)
		}(i)
	}
	close(start)
	wg.Wait()
	hits, misses := opt.Memo.Stats()
	keys := uint64(opt.Memo.Len())
	if keys == 0 || misses != keys || hits != (callers-1)*keys {
		t.Fatalf("%d keys: %d misses, %d hits; want %d misses, %d hits", keys, misses, hits, keys, (callers-1)*keys)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d diverges:\n%+v\n%+v", i, results[i], results[0])
		}
	}
}

// remap relabels g's nodes into metagraph ids, so the reachability
// sampler sees the id space Refine reports in.
func remap(g *graph.Digraph, ids []int) *graph.Digraph {
	max := 0
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	m := graph.New(max + 1)
	m.AddNodes(max + 1)
	g.Edges(func(u, v int) { m.AddEdge(ids[u], ids[v]) })
	return m
}

// TestRefineMemoEntriesImmutable pins that callers never write through
// to the cache: after every slice of two returned Results (a miss and
// a hit) is scribbled over, each cached entry is unchanged.
func TestRefineMemoEntriesImmutable(t *testing.T) {
	g, ids, bug := randomClustered(3)
	sampler := ReachabilitySampler(remap(g, ids), bug)
	opt := Options{SmallEnough: 5, Memo: NewMemo()}
	first, err := Refine(g, ids, sampler, bug, opt)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := map[string]analysis{}
	for k, e := range opt.Memo.entries {
		snapshot[k] = analysis{
			largestSCC: e.a.largestSCC,
			comms:      deepCopy(e.a.comms),
			sampled:    append([]int(nil), e.a.sampled...),
		}
	}
	if len(snapshot) == 0 {
		t.Fatal("nothing cached")
	}
	warm, err := Refine(g, ids, sampler, bug, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{first, warm} {
		scribble(res.Final)
		for _, it := range res.Iterations {
			for _, c := range it.Communities {
				scribble(c)
			}
			scribble(it.Sampled)
			scribble(it.Detected)
		}
	}
	if len(opt.Memo.entries) != len(snapshot) {
		t.Fatalf("entries = %d, want %d", len(opt.Memo.entries), len(snapshot))
	}
	for k, e := range opt.Memo.entries {
		if !reflect.DeepEqual(e.a, snapshot[k]) {
			t.Fatalf("cached entry changed after callers used the result:\nnow  %+v\nwant %+v", e.a, snapshot[k])
		}
	}
}

func deepCopy(xss [][]int) [][]int {
	out := make([][]int, len(xss))
	for i, xs := range xss {
		out[i] = append([]int(nil), xs...)
	}
	return out
}

func scribble(xs []int) {
	for i := range xs {
		xs[i] = -1
	}
}

// TestMemoKeyDistinguishes pins what the key holds: in-list order
// (EigenvectorIn sums in that order), TopM and Centrality each split
// keys, while Parallelism, which cannot change a result, does not.
func TestMemoKeyDistinguishes(t *testing.T) {
	// Equal out-lists; node 2's in-list is [0 1] in a and [1 0] in b.
	build := func(edges ...[2]int) *graph.Digraph {
		g := graph.New(3)
		g.AddNodes(3)
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
		return g
	}
	a := build([2]int{0, 2}, [2]int{1, 2}, [2]int{0, 1})
	b := build([2]int{1, 2}, [2]int{0, 2}, [2]int{0, 1})
	for u := 0; u < 3; u++ {
		if !reflect.DeepEqual(a.Out(u), b.Out(u)) {
			t.Fatalf("out-lists of %d differ: %v vs %v", u, a.Out(u), b.Out(u))
		}
	}
	if reflect.DeepEqual(a.In(2), b.In(2)) {
		t.Fatal("in-lists of node 2 should differ in order")
	}
	opt := Options{}.withDefaults()
	if bytes.Equal(memoKey(a, opt), memoKey(b, opt)) {
		t.Fatal("graphs with different in-list order share a key")
	}
	if !bytes.Equal(memoKey(a, opt), memoKey(build([2]int{0, 2}, [2]int{1, 2}, [2]int{0, 1}), opt)) {
		t.Fatal("identical graphs get different keys")
	}

	g, _ := twoCommunityGraph(8)
	topM := opt
	topM.TopM = 3
	cent := opt
	cent.Centrality = "pagerank"
	par := opt
	par.Parallelism = 8
	k := memoKey(g, opt)
	if bytes.Equal(k, memoKey(g, topM)) {
		t.Fatal("TopM does not split keys")
	}
	if bytes.Equal(k, memoKey(g, cent)) {
		t.Fatal("Centrality does not split keys")
	}
	if !bytes.Equal(k, memoKey(g, par)) {
		t.Fatal("Parallelism splits keys")
	}
}
