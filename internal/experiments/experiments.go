// Package experiments wires the full pipeline of the paper end to end
// for each of the six experiments of §6 and the supplement: build the
// (bugged) corpus, run ensemble and experimental sets, confirm the
// consistency-test failure, select the affected output variables,
// coverage-filter and compile the source into the metagraph, slice,
// and run the Algorithm 5.4 refinement with either simulated
// (reachability) or real (value-snapshot) sampling.
//
// The pipeline is exposed through the staged, compile-once Session
// (see session.go), which caches the corpus, the ensemble ECT
// fingerprint and the compiled metagraphs across experiments.
package experiments

import (
	"fmt"
	"io"

	"github.com/climate-rca/rca/internal/core"
	"github.com/climate-rca/rca/internal/coverage"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/lasso"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/slicing"
	"github.com/climate-rca/rca/internal/stats"
)

// The paper's prewired experiments (§6 and supplement §8.2).
var (
	WSUBBUG    = NewScenario("WSUBBUG", ScenarioOptions{CAMOnly: true, SelectK: 1}, WsubDefect())
	RANDMT     = NewScenario("RAND-MT", ScenarioOptions{CAMOnly: true, SelectK: 5}, MersennePRNG())
	GOFFGRATCH = NewScenario("GOFFGRATCH", ScenarioOptions{CAMOnly: true, SelectK: 5}, GoffGratchDefect())
	AVX2       = NewScenario("AVX2", ScenarioOptions{CAMOnly: true, SelectK: 5}, EnableFMA())
	RANDOMBUG  = NewScenario("RANDOMBUG", ScenarioOptions{CAMOnly: true, SelectK: 1}, RandomIdxDefect())
	DYN3BUG    = NewScenario("DYN3BUG", ScenarioOptions{CAMOnly: true, SelectK: 5}, Dyn3Defect())
	// AVX2Full is Figure 15: AVX2 without the CAM restriction.
	AVX2Full = NewScenario("AVX2-FULL", ScenarioOptions{SelectK: 5}, EnableFMA())
	// LANDBUG is the land-module defect the paper mentions locating
	// (§6, "we have successfully located bugs in the land module as
	// well"); the slice is necessarily unrestricted.
	LANDBUG = NewScenario("LANDBUG", ScenarioOptions{SelectK: 2}, LandDefect())
)

// catalog is the single list of every prewired scenario (§6 order,
// then the supplement): the wire format's {"experiment": NAME}
// references resolve against it. A new prewired scenario must be
// added here too — TestExperimentCatalogWireParity (root package) pins
// parity with rca.AllExperiments.
var catalog = []Scenario{WSUBBUG, RANDMT, GOFFGRATCH, AVX2, RANDOMBUG, DYN3BUG, AVX2Full, LANDBUG}

// Outcome is everything an experiment produces.
type Outcome struct {
	// Name labels the investigation (the scenario's display name).
	Name string
	// Scenario is the investigation definition that produced this
	// outcome.
	Scenario Scenario
	// FailureRate is the UF-ECT failure rate of the experimental set.
	FailureRate float64
	// SelectedOutputs are the output labels picked by the lasso (or
	// median-distance fallback), most important first.
	SelectedOutputs []string
	// Internals are the corresponding internal canonical names
	// (Table 2's right column).
	Internals []string
	// MedianRanking is the §3 distribution-based ranking for
	// comparison.
	MedianRanking []stats.VariableDistance
	// FirstStep is the §3 direct first-time-step comparison, tried
	// before the distribution methods (nil if it errored).
	FirstStep *FirstStepResult
	// Coverage is the hybrid-slicing dynamic filter report.
	Coverage coverage.Report
	// GraphNodes/GraphEdges size the full metagraph; SliceNodes/
	// SliceEdges the induced subgraph of Algorithm 5.4 step 4.
	GraphNodes, GraphEdges int
	SliceNodes, SliceEdges int
	// BugNodes are the known defect locations (metagraph ids);
	// BugDisplays their paper-style names.
	BugNodes    []int
	BugDisplays []string
	// KGenFlagged lists the KGen-flagged kernel variables (AVX2 only).
	KGenFlagged []string
	// Refine is the Algorithm 5.4 trace.
	Refine *core.Result
	// BugInSlice reports whether the slice contains a bug node.
	BugInSlice bool
	// BugLocated: refinement instrumented a bug node or retained one
	// in the final (small) subgraph.
	BugLocated bool
	// Metagraph gives callers access for follow-on analysis.
	Metagraph *metagraph.Metagraph
	// Slice is the induced subgraph.
	Slice *slicing.Slice
}

// group transposes runs into per-variable samples.
func group(runs []ect.RunOutput) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range runs {
		for k, v := range r {
			out[k] = append(out[k], v)
		}
	}
	return out
}

// selectionProblem is the §3 lasso design: control-ensemble runs
// (label 0) then experimental runs (label 1), one column per output
// variable in vars order.
func selectionProblem(vars []string, ens, exp []ect.RunOutput) lasso.Problem {
	n, d := len(ens)+len(exp), len(vars)
	x := make([]float64, n*d)
	y := make([]float64, n)
	put := func(row int, r ect.RunOutput) {
		for j, v := range vars {
			x[row*d+j] = r[v]
		}
	}
	for i, r := range ens {
		put(i, r)
	}
	for i, r := range exp {
		y[len(ens)+i] = 1
		put(len(ens)+i, r)
	}
	return lasso.Problem{X: x, Y: y, N: n, D: d}
}

// selectOutputs applies §3: try the lasso with the scenario's target
// K; when the problem is degenerate (e.g. a single wildly affected
// variable) fall back to the median-distance ranking.
func selectOutputs(k int, vars []string, ens, exp []ect.RunOutput,
	ranking []stats.VariableDistance, solver lasso.Solver) ([]string, lasso.PathStats, error) {
	if k <= 0 {
		k = 5
	}
	sel, _, st, err := lasso.SelectK(selectionProblem(vars, ens, exp), k, 1500, solver)
	if err == nil && len(sel) > 0 {
		var labels []string
		for _, j := range sel {
			labels = append(labels, vars[j])
		}
		// The lasso can latch onto sampling accidents when one
		// variable separates perfectly; intersect sanity: ensure the
		// top median-distance variable is present, prepending it when
		// missing (both methods "mostly coincide", §3).
		if len(ranking) > 0 && !ranking[0].IQROverlap {
			top := ranking[0].Name
			if !contains(labels, top) {
				labels = append([]string{top}, labels...)
			}
		}
		if len(labels) > 10 {
			labels = labels[:10]
		}
		return labels, st, nil
	}
	// Fallback: median-distance selection.
	names := stats.SelectAffected(ranking, 10)
	if len(names) == 0 {
		return nil, st, fmt.Errorf("experiments: variable selection found nothing")
	}
	if len(names) > k {
		names = names[:k]
	}
	return names, st, nil
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// WriteSliceDot renders the induced subgraph with the first
// iteration's communities, the bug locations highlighted in red, and
// the sampled central nodes in orange — the styling of Figures 5-8.
func (o *Outcome) WriteSliceDot(w io.Writer) error {
	opt := metagraph.DotOptions{Name: o.Name, Highlight: o.BugNodes}
	if len(o.Refine.Iterations) > 0 {
		opt.Communities = o.Refine.Iterations[0].Communities
		opt.Secondary = o.Refine.Iterations[0].Sampled
	}
	return o.Metagraph.WriteDot(w, o.Slice.Sub, o.Slice.NodeMap, opt)
}
