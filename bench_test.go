package rca

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§6 plus the supplement §8). Each benchmark
// prints the reproduced artifact — the same rows or series the paper
// reports — on its first iteration, so
//
//	go test -bench=. -benchmem
//
// doubles as the experiment log that EXPERIMENTS.md summarizes.
// Absolute node counts and percentages are corpus-scale dependent; the
// shape (who wins, orderings, convergence behaviour) is the
// reproduction target.

import (
	"context"
	"fmt"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/experiments"
	"github.com/climate-rca/rca/internal/lasso"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/slicing"
	"github.com/climate-rca/rca/internal/stats"
)

// benchSession builds a fresh Session over the benchmark corpus, a
// consistent, moderate size.
func benchSession(opts ...Option) *Session {
	return NewSession(CorpusConfig{AuxModules: 40, Seed: 2},
		append([]Option{WithEnsembleSize(30), WithExpSize(8)}, opts...)...)
}

// benchRun runs one scenario on a fresh benchSession: every call
// regenerates the corpus, re-runs the ensemble and recompiles the
// metagraph.
func benchRun(sc Scenario, opts ...Option) (*Outcome, error) {
	return benchSession(opts...).Run(context.Background(), sc)
}

// BenchmarkPipelineSixSpecsSession runs the same six experiments on
// one Session per iteration: the corpus, the ensemble ECT fingerprint
// and the metagraphs are generated once and shared, and RunAll fans
// out concurrently. Besides time it reports lasso fits and iterations
// and refinement-memo hits per op.
func BenchmarkPipelineSixSpecsSession(b *testing.B) {
	var fits, iters, memoHits uint64
	for i := 0; i < b.N; i++ {
		s := benchSession()
		if _, err := s.RunAll(context.Background(), Experiments()); err != nil {
			b.Fatal(err)
		}
		f, it := s.LassoStats()
		fits += f
		iters += it
		h, _ := s.RefineMemoStats()
		memoHits += h
	}
	b.ReportMetric(float64(fits)/float64(b.N), "lassofits")
	b.ReportMetric(float64(iters)/float64(b.N), "lassoiters")
	b.ReportMetric(float64(memoHits)/float64(b.N), "refinememohits")
}

// BenchmarkPipelineSixSpecsSessionISTA is the same six-spec session
// with the §3 selection stage pinned to the cold dense ISTA reference
// solver instead of the coordinate-screened engine. The gap to
// BenchmarkPipelineSixSpecsSession is the lasso-engine win; outputs
// are pinned bit-identical, so the two benchmarks do exactly the same
// science.
func BenchmarkPipelineSixSpecsSessionISTA(b *testing.B) {
	var fits, iters uint64
	for i := 0; i < b.N; i++ {
		s := benchSession(experiments.WithLassoSolver(lasso.SolverISTA))
		if _, err := s.RunAll(context.Background(), Experiments()); err != nil {
			b.Fatal(err)
		}
		f, it := s.LassoStats()
		fits += f
		iters += it
	}
	b.ReportMetric(float64(fits)/float64(b.N), "lassofits")
	b.ReportMetric(float64(iters)/float64(b.N), "lassoiters")
}

// BenchmarkPipelineSixSpecsSessionUnbatched is the same six-spec
// session run with batching disabled (experiments.WithBatch(1)): every
// ensemble and experimental member integrates on its own one-lane VM. The gap to
// BenchmarkPipelineSixSpecsSession is the lockstep SoA batching win;
// outputs are pinned bit-identical, so the two benchmarks do exactly
// the same science.
func BenchmarkPipelineSixSpecsSessionUnbatched(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(experiments.WithBatch(1))
		if _, err := s.RunAll(context.Background(), Experiments()); err != nil {
			b.Fatal(err)
		}
	}
}

func runSpec(b *testing.B, spec Scenario, print bool) *Outcome {
	b.Helper()
	var out *Outcome
	var err error
	for i := 0; i < b.N; i++ {
		out, err = benchRun(spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && print {
			fmt.Printf("\n--- %s ---\n%s", spec.Name(), FormatOutcome(out))
		}
	}
	return out
}

// BenchmarkTable1SelectiveFMA regenerates Table 1: UF-ECT failure
// rates under selective AVX2/FMA disablement strategies.
func BenchmarkTable1SelectiveFMA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := benchSession().Table1(context.Background(), Table1Setup{
			ExpSize:       8,
			TopK:          8,
			RandomSamples: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n--- Table 1 ---\n%s", FormatTable1(rows))
		}
	}
}

// BenchmarkTable2VariableSelection regenerates Table 2: the output
// variables each experiment's selection picks, and their internal
// counterparts.
func BenchmarkTable2VariableSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Printf("\n--- Table 2 ---\n")
		}
		outs, err := benchSession().RunAll(context.Background(), Experiments())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, out := range outs {
				fmt.Printf("%-11s outputs: %v\n%-11s internal: %v\n",
					out.Name, out.SelectedOutputs, "", out.Internals)
			}
		}
	}
}

// BenchmarkFigure4DegreeDistribution regenerates Figures 4/9: the
// degree distribution of the full variable digraph.
func BenchmarkFigure4DegreeDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := corpus.Generate(corpus.Config{AuxModules: 100, Seed: 1})
		mods, err := c.Parse()
		if err != nil {
			b.Fatal(err)
		}
		mg, err := metagraph.Build(mods)
		if err != nil {
			b.Fatal(err)
		}
		points := experiments.DegreeDistribution(mg.G)
		if i == 0 {
			fmt.Printf("\n--- Figure 4 (degree distribution, %d nodes %d edges) ---\n",
				mg.G.NumNodes(), mg.G.NumEdges())
			for _, p := range points {
				if p.Degree <= 12 || p.Count >= 5 {
					fmt.Printf("degree %4d: %d nodes\n", p.Degree, p.Count)
				}
			}
			fmt.Printf("power-law exponent ~%.2f\n", experiments.PowerLawExponent(points))
		}
	}
}

// BenchmarkWsubBugSection61 regenerates the §6.1 WSUBBUG narrative:
// dominant median distance and a tiny induced subgraph containing the
// defect.
func BenchmarkWsubBugSection61(b *testing.B) {
	out := runSpec(b, WSUBBUG, true)
	if out.MedianRanking[0].Name != "WSUB" {
		b.Fatalf("wsub not top-ranked")
	}
}

// BenchmarkFigure5and6RandMT regenerates the RAND-MT two-iteration
// narrative (Figures 5-6).
func BenchmarkFigure5and6RandMT(b *testing.B) { runSpec(b, RANDMT, true) }

// BenchmarkFigure7GoffGratch regenerates the GOFFGRATCH iteration
// (Figure 7).
func BenchmarkFigure7GoffGratch(b *testing.B) { runSpec(b, GOFFGRATCH, true) }

// BenchmarkFigure8AVX2 regenerates Figure 8 and the §6.4 in-centrality
// listing of the bug community (dum__micro_mg_tend et al.).
func BenchmarkFigure8AVX2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := benchRun(AVX2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n--- Figure 8 / §6.4 ---\n%s", FormatOutcome(out))
			if len(out.Refine.Iterations) > 0 {
				listing := experiments.CommunityInCentrality(out.Metagraph,
					out.Refine.Iterations[0].Communities, out.BugNodes, 16)
				fmt.Println("bug-community in-centrality[:16]:")
				for _, cn := range listing {
					fmt.Printf("  (%s, %f)\n", cn.Display, cn.Score)
				}
			}
		}
	}
}

// BenchmarkFigure10GoffGratchDegrees regenerates Figure 10: the degree
// distribution of the GOFFGRATCH induced subgraph.
func BenchmarkFigure10GoffGratchDegrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := benchRun(GOFFGRATCH)
		if err != nil {
			b.Fatal(err)
		}
		points := experiments.DegreeDistribution(out.Slice.Sub)
		if i == 0 {
			fmt.Printf("\n--- Figure 10 (GOFFGRATCH subgraph degrees, %d nodes) ---\n",
				out.SliceNodes)
			for _, p := range points {
				fmt.Printf("degree %4d: %d nodes\n", p.Degree, p.Count)
			}
			fmt.Printf("power-law exponent ~%.2f\n", experiments.PowerLawExponent(points))
		}
	}
}

// BenchmarkFigure11NonBacktracking regenerates Figure 11: eigenvector
// vs Hashimoto non-backtracking centrality rank curves on the
// GOFFGRATCH subgraph.
func BenchmarkFigure11NonBacktracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := benchRun(GOFFGRATCH)
		if err != nil {
			b.Fatal(err)
		}
		curve := experiments.Figure11(out.Slice.Sub)
		if i == 0 {
			fmt.Printf("\n--- Figure 11 (rank curves, %d nodes) ---\n", out.SliceNodes)
			fmt.Printf("%-6s %-14s %-14s\n", "rank", "eigenvector", "non-backtracking")
			for _, r := range []int{0, 1, 2, 4, 9, 19, 49} {
				if r < len(curve.Eigen) {
					nb := 0.0
					if r < len(curve.NonBacktracking) {
						nb = curve.NonBacktracking[r]
					}
					fmt.Printf("%-6d %-14.6g %-14.6g\n", r+1, curve.Eigen[r], nb)
				}
			}
			fmt.Printf("non-backtracking ranks %d of %d nodes (sharp drop beyond)\n",
				curve.NBRanked, out.SliceNodes)
		}
	}
}

// BenchmarkFigure12RandomBug regenerates the RANDOMBUG single
// iteration (Figure 12, supplement §8.2.1).
func BenchmarkFigure12RandomBug(b *testing.B) { runSpec(b, RANDOMBUG, true) }

// BenchmarkFigure13and14Dyn3Bug regenerates the DYN3BUG two-iteration
// narrative (Figures 13-14, supplement §8.2.2).
func BenchmarkFigure13and14Dyn3Bug(b *testing.B) { runSpec(b, DYN3BUG, true) }

// BenchmarkFigure15AVX2Unrestricted regenerates Figure 15: the AVX2
// slice without the CAM-module restriction (larger graph, same
// conclusions after an extra iteration).
func BenchmarkFigure15AVX2Unrestricted(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// One session: the two variants share the corpus, ensemble and
		// the compiled AVX2 metagraph; only the slice differs.
		s := benchSession()
		restricted, err := s.Run(context.Background(), AVX2)
		if err != nil {
			b.Fatal(err)
		}
		full, err := s.Run(context.Background(), AVX2Full)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n--- Figure 15 ---\nCAM-restricted slice: %d nodes / %d edges\n",
				restricted.SliceNodes, restricted.SliceEdges)
			fmt.Printf("unrestricted slice:   %d nodes / %d edges\n",
				full.SliceNodes, full.SliceEdges)
			fmt.Printf("bug located: restricted=%v unrestricted=%v\n",
				restricted.BugLocated, full.BugLocated)
			if full.SliceNodes <= restricted.SliceNodes {
				fmt.Println("WARNING: unrestricted slice not larger")
			}
		}
	}
}

// --- Ablation benches (design choices DESIGN.md calls out) ---------

// BenchmarkAblationGNDepth compares one vs several Girvan-Newman
// rounds per refinement iteration (§5.4's conservative choice).
func BenchmarkAblationGNDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Printf("\n--- Ablation: G-N depth ---\n")
		}
		for _, depth := range []int{1, 2, 3} {
			out, err := benchRun(GOFFGRATCH, WithRefineOptions(RefineOptions{GNIterations: depth}))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("gn=%d iterations=%d located=%v final=%d communities(first)=%d\n",
					depth, len(out.Refine.Iterations), out.BugLocated,
					len(out.Refine.Final), len(out.Refine.Iterations[0].Communities))
			}
		}
	}
}

// BenchmarkAblationCentralityChoice compares sampling-site rankings
// (paper §5.3 picks eigenvector in-centrality; supplement §8.1 finds
// non-backtracking no better).
func BenchmarkAblationCentralityChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Printf("\n--- Ablation: centrality choice ---\n")
		}
		for _, kind := range []string{"eigen-in", "degree", "pagerank", "nonbacktracking"} {
			out, err := benchRun(GOFFGRATCH, WithRefineOptions(RefineOptions{Centrality: kind}))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("%-16s iterations=%d located=%v final=%d\n",
					kind, len(out.Refine.Iterations), out.BugLocated, len(out.Refine.Final))
			}
		}
	}
}

// BenchmarkAblationCommunityMethod compares Girvan-Newman (the
// paper's partitioner) against Louvain greedy modularity — the
// scalable alternative for paper-sized subgraphs.
func BenchmarkAblationCommunityMethod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Printf("\n--- Ablation: community method ---\n")
		}
		for _, method := range []string{"girvan-newman", "louvain"} {
			out, err := benchRun(GOFFGRATCH, WithRefineOptions(RefineOptions{CommunityMethod: method}))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("%-14s iterations=%d located=%v final=%d communities(first)=%d\n",
					method, len(out.Refine.Iterations), out.BugLocated,
					len(out.Refine.Final), len(out.Refine.Iterations[0].Communities))
			}
		}
	}
}

// BenchmarkAblationCommunitySampling compares community-aware
// sampling with whole-subgraph top-m sampling (the §6.2 discussion:
// without communities the centrality-dominant cluster absorbs every
// sample).
func BenchmarkAblationCommunitySampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 {
			fmt.Printf("\n--- Ablation: community vs whole-graph sampling ---\n")
		}
		for _, whole := range []bool{false, true} {
			out, err := benchRun(RANDMT, WithRefineOptions(RefineOptions{WholeGraphSampling: whole}))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("wholeGraph=%-5v iterations=%d located=%v final=%d\n",
					whole, len(out.Refine.Iterations), out.BugLocated, len(out.Refine.Final))
			}
		}
	}
}

// BenchmarkAblationSliceKind compares the union-of-shortest-paths
// (ancestor-closure) slice with a slice that keeps the targets'
// descendants too, measuring precision loss.
func BenchmarkAblationSliceKind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2})
		mods, err := c.Parse()
		if err != nil {
			b.Fatal(err)
		}
		mg, err := metagraph.Build(mods)
		if err != nil {
			b.Fatal(err)
		}
		sl, err := slicing.FromOutputs(mg, []string{"QRL", "FLDS", "FLNS"}, slicing.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Ancestors ∪ descendants alternative.
		targets := sl.GraphIDs(sl.Targets)
		both := append(mg.G.Ancestors(targets), mg.G.Descendants(targets)...)
		wide, _ := mg.G.Subgraph(both)
		if i == 0 {
			fmt.Printf("\n--- Ablation: slice kind ---\n")
			fmt.Printf("ancestor closure: %d nodes\nancestors+descendants: %d nodes\n",
				sl.Sub.NumNodes(), wide.NumNodes())
		}
	}
}

// BenchmarkAblationSelectionMethods compares the two §3 variable
// selection methods: lasso vs standardized median distance.
func BenchmarkAblationSelectionMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := benchRun(GOFFGRATCH)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n--- Ablation: variable selection methods ---\n")
			fmt.Printf("lasso selection:   %v\n", out.SelectedOutputs)
			med := stats.SelectAffected(out.MedianRanking, 10)
			fmt.Printf("median distances:  %v\n", med)
			overlap := 0
			for _, l := range out.SelectedOutputs {
				for _, m := range med {
					if l == m {
						overlap++
					}
				}
			}
			fmt.Printf("overlap: %d of %d (the paper: orderings mostly coincide)\n",
				overlap, len(out.SelectedOutputs))
		}
	}
}
