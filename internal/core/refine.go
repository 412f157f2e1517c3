// Package core implements the paper's primary contribution: the
// iterative refinement procedure of Algorithm 5.4 (Milroy et al.,
// HPDC 2019 §5.4). Given the induced subgraph that computes the
// affected output variables, each iteration partitions the (weakly
// connected view of the) subgraph with Girvan-Newman, ranks each
// community's nodes by eigenvector in-centrality, "instruments" the
// top-m nodes per community, and contracts the subgraph based on
// which instrumented nodes take different values between the ensemble
// and experimental runs — a k-ary search over the code's dataflow.
package core

import (
	"sort"

	"github.com/climate-rca/rca/internal/centrality"
	"github.com/climate-rca/rca/internal/graph"
)

// Options tunes Algorithm 5.4.
type Options struct {
	// TopM is the number of most-central nodes instrumented per
	// community (the paper uses 10; 3 for very small subgraphs).
	TopM int
	// GNIterations is the number of Girvan-Newman rounds per
	// refinement iteration (the paper uses 1, conservatively).
	GNIterations int
	// MinCommunity omits communities smaller than this many nodes
	// (the paper omits those under 3-4).
	MinCommunity int
	// MaxIterations caps the refinement loop.
	MaxIterations int
	// SmallEnough stops refinement once the subgraph is at most this
	// many nodes ("small enough for manual analysis").
	SmallEnough int
	// Centrality picks the sampling-site ranking: "eigen-in" (paper
	// default), "degree", "pagerank", or "nonbacktracking" (supplement
	// §8.1). Used by the ablation benches.
	Centrality string
	// WholeGraphSampling disables community detection and samples the
	// top-m nodes of the entire subgraph — the alternative §6.2 argues
	// against (the centrality-dominant community absorbs all samples).
	WholeGraphSampling bool
	// CommunityMethod picks the partitioner: "girvan-newman" (paper
	// default) or "louvain" (greedy modularity, much faster at paper
	// scale).
	CommunityMethod string
	// Checkpoint, when non-nil, is called at the top of every
	// refinement iteration; a non-nil return aborts the loop with that
	// error. The experiments layer wires per-call context cancellation
	// through it, so a canceled investigation stops between iterations
	// instead of running the loop to convergence.
	Checkpoint func() error
	// Parallelism bounds the worker pool the graph kernels (edge
	// betweenness, Girvan-Newman recomputation, eigenvector matvecs)
	// shard work across (default 1). Kernel results are bit-identical
	// at every parallelism level, so this is purely a wall-clock knob;
	// the Session defaults it to GOMAXPROCS via WithParallelism.
	Parallelism int
	// Memo caches each iteration's graph analysis (steps 1, 5 and 6)
	// by subgraph content, so repeated subgraphs skip Girvan-Newman
	// and centrality. A Session sets one shared by all its
	// investigations; nil means a memo local to the call. A hit is
	// indistinguishable from a miss in every result.
	Memo *Memo
}

func (o Options) withDefaults() Options {
	if o.TopM <= 0 {
		o.TopM = 10
	}
	if o.GNIterations <= 0 {
		o.GNIterations = 1
	}
	if o.MinCommunity <= 0 {
		o.MinCommunity = 3
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 8
	}
	if o.SmallEnough <= 0 {
		o.SmallEnough = 25
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// Action records which Algorithm 5.4 branch an iteration took.
type Action string

// Refinement actions.
const (
	ActionContractToDetected Action = "8b" // keep ancestors of detected nodes
	ActionRemoveCleared      Action = "8a" // drop ancestors of clean nodes
	ActionBugInstrumented    Action = "bug-instrumented"
	ActionSmallEnough        Action = "small-enough"
	ActionNoCommunities      Action = "no-communities"
	ActionFixedPoint         Action = "fixed-point"
)

// Iteration is one round of the refinement loop, in metagraph ids.
type Iteration struct {
	Nodes, Edges int
	// LargestSCC is the size of the subgraph's largest strongly
	// connected component: when the detected nodes live inside it,
	// step 8b cannot contract (the fixed-point diagnosis).
	LargestSCC int
	// Communities are the G-N communities (metagraph ids), largest
	// first.
	Communities [][]int
	// Sampled are the instrumented nodes ({n_kl}), per community,
	// flattened; Detected is the subset with value differences
	// ({d_kl}).
	Sampled  []int
	Detected []int
	Action   Action
}

// Result is the outcome of the refinement procedure.
type Result struct {
	Iterations []Iteration
	// Final is the surviving node set (metagraph ids).
	Final []int
	// BugInstrumented reports whether a known bug node was among the
	// sampled nodes at some iteration (success criterion 2 of the
	// paper's step 9).
	BugInstrumented bool
	// Converged reports the loop ended via a success criterion rather
	// than the iteration cap.
	Converged bool
}

// Refine runs Algorithm 5.4 on the slice subgraph sub whose node i is
// metagraph node nodeMap[i]. sampler implements step 7; bugNodes (may
// be nil) are the known defect locations used only for the
// bug-instrumented success check in step 9. The only error source is
// opt.Checkpoint, evaluated between iterations.
func Refine(sub *graph.Digraph, nodeMap []int, sampler Sampler, bugNodes []int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	memo := opt.Memo
	if memo == nil {
		memo = NewMemo()
	}
	bugSet := make(map[int]bool, len(bugNodes))
	for _, b := range bugNodes {
		bugSet[b] = true
	}
	res := &Result{}
	cur := sub
	curMap := append([]int(nil), nodeMap...)

	for iter := 0; iter < opt.MaxIterations; iter++ {
		if opt.Checkpoint != nil {
			if err := opt.Checkpoint(); err != nil {
				return nil, err
			}
		}
		it := Iteration{Nodes: cur.NumNodes(), Edges: cur.NumEdges()}

		if cur.NumNodes() <= opt.SmallEnough {
			it.LargestSCC = cur.Condensation().LargestSCC
			it.Action = ActionSmallEnough
			res.Iterations = append(res.Iterations, it)
			res.Final = append([]int(nil), curMap...)
			res.Converged = true
			return res, nil
		}

		// Steps 1, 5 and 6 depend only on the subgraph: the memo runs
		// them once per distinct subgraph. The cached slices are
		// shared, so everything below only reads them.
		a := memo.analyze(cur, opt)
		it.LargestSCC = a.largestSCC
		if len(a.comms) == 0 {
			it.Action = ActionNoCommunities
			res.Iterations = append(res.Iterations, it)
			res.Final = append([]int(nil), curMap...)
			res.Converged = true
			return res, nil
		}
		for _, c := range a.comms {
			it.Communities = append(it.Communities, translate(c, curMap))
		}
		it.Sampled = translate(a.sampled, curMap)

		// Step 7: instrument (simulated or value-based sampling).
		detectedGlobal := sampler.Sample(it.Sampled)
		it.Detected = detectedGlobal

		// Step 9 success: a bug node was instrumented.
		for _, s := range it.Sampled {
			if bugSet[s] {
				it.Action = ActionBugInstrumented
				res.Iterations = append(res.Iterations, it)
				res.Final = append([]int(nil), curMap...)
				res.BugInstrumented = true
				res.Converged = true
				return res, nil
			}
		}

		// Step 8: contract.
		var keepLocal []int
		if len(detectedGlobal) == 0 {
			// 8a: drop everything on paths terminating at the sampled
			// (clean) nodes.
			it.Action = ActionRemoveCleared
			drop := map[int]bool{}
			for _, n := range cur.Ancestors(a.sampled) {
				drop[n] = true
			}
			for n := 0; n < cur.NumNodes(); n++ {
				if !drop[n] {
					keepLocal = append(keepLocal, n)
				}
			}
		} else {
			// 8b: keep only paths terminating on detected nodes.
			it.Action = ActionContractToDetected
			keepLocal = cur.Ancestors(localIDs(detectedGlobal, curMap))
		}
		res.Iterations = append(res.Iterations, it)

		if len(keepLocal) == 0 || len(keepLocal) == cur.NumNodes() {
			// The paper's first issue: the induced subgraph does not
			// refine the previous iteration (or refines to nothing).
			last := &res.Iterations[len(res.Iterations)-1]
			last.Action = ActionFixedPoint
			res.Final = translateLocalKeep(keepLocal, curMap, cur.NumNodes())
			res.Converged = true
			return res, nil
		}
		next, nextLocal := cur.Subgraph(keepLocal)
		nextMap := make([]int, len(nextLocal))
		for i, l := range nextLocal {
			nextMap[i] = curMap[l]
		}
		cur, curMap = next, nextMap
	}
	res.Final = append([]int(nil), curMap...)
	return res, nil
}

// rankBy dispatches the centrality measure named by kind. par bounds
// the eigensolver's matvec worker pool.
func rankBy(kind string, g *graph.Digraph, par int) []float64 {
	opt := centrality.Options{Parallelism: par}
	switch kind {
	case "", "eigen-in":
		return centrality.EigenvectorIn(g, opt)
	case "degree":
		return centrality.InDegree(g)
	case "pagerank":
		return centrality.PageRank(g, 0.85, opt)
	case "nonbacktracking":
		return centrality.NonBacktracking(g.Undirected(), opt)
	}
	return centrality.EigenvectorIn(g, opt)
}

func translate(local []int, m []int) []int {
	out := make([]int, len(local))
	for i, l := range local {
		out[i] = m[l]
	}
	sort.Ints(out)
	return out
}

func localIDs(global []int, m []int) []int {
	pos := make(map[int]int, len(m))
	for i, g := range m {
		pos[g] = i
	}
	var out []int
	for _, g := range global {
		if i, ok := pos[g]; ok {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func translateLocalKeep(keepLocal, curMap []int, n int) []int {
	if len(keepLocal) == 0 {
		// Refined to nothing: report the previous subgraph.
		return append([]int(nil), curMap...)
	}
	return translate(keepLocal, curMap)
}

// ReachabilitySampler simulates step 7 the way the paper does (§5.2):
// an instrumented node registers a difference iff it is reachable from
// a known bug node (or is one) in the full metagraph digraph g.
// bugNodes and the returned ids are metagraph ids.
func ReachabilitySampler(g *graph.Digraph, bugNodes []int) Sampler {
	// Precompute the bug-influenced set once.
	influenced := map[int]bool{}
	for _, d := range g.Descendants(bugNodes) {
		influenced[d] = true
	}
	return SamplerFunc(func(nodes []int) []int {
		var out []int
		for _, n := range nodes {
			if influenced[n] {
				out = append(out, n)
			}
		}
		return out
	})
}
