// The pipeline's typed stages. experiments.Run used to be one
// monolithic function; each paper step is now a stage function with
// typed inputs and outputs so a Session can cache and recombine them:
//
//	Builds      — control + experimental model builds (corpus parse)
//	Fingerprint — control ensemble + its ECT PCA fingerprint
//	Verdict     — experimental set + UF-ECT failure rate      (step 0)
//	Selection   — affected output variables                   (§3)
//	Compiled    — coverage trace + filter + metagraph         (§4)
//	Sliced      — internal names, induced subgraph, bug sites (§5.1-5.3)
//	core.Result — Algorithm 5.4 refinement trace              (§5.4)
package experiments

import (
	"context"
	"fmt"
	"sort"

	"github.com/climate-rca/rca/internal/core"
	"github.com/climate-rca/rca/internal/coverage"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/lasso"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/model"
	"github.com/climate-rca/rca/internal/slicing"
	"github.com/climate-rca/rca/internal/stats"
)

// Builds pairs the control and experimental model builds for one
// scenario. The runners cache the parsed corpus; RunCfg/ExpRunCfg
// carry the scenario's configuration injections (PRNG swap, FMA
// policy).
type Builds struct {
	Control, Exper    *model.Runner
	RunCfg, ExpRunCfg model.RunConfig
}

// Fingerprint is the cached ensemble state every experiment shares:
// the control ensemble outputs and the ECT PCA fingerprint fitted to
// them (the accept/reject machinery of §2.1).
type Fingerprint struct {
	Ensemble []ect.RunOutput
	Test     *ect.Test
}

// Verdict is the stage-0 result: the experimental set and its UF-ECT
// failure rate — the Pass/Fail verdict that starts an investigation.
// It carries no scenario identity on purpose: verdicts are cached per
// build fingerprint and shared by every scenario with that build.
type Verdict struct {
	FailureRate float64
	ExpRuns     []ect.RunOutput
}

// Selection is the §3 result: the affected output variables, the
// median-distance ranking, and the first-time-step comparison.
type Selection struct {
	Outputs       []string
	MedianRanking []stats.VariableDistance
	FirstStep     *FirstStepResult
}

// Compiled is the §4 result: the dynamic coverage filter report and
// the metagraph compiled from the filtered experimental source tree.
// Builds of one program shape whose coverage traces executed the same
// code share one Compiled; it is never mutated after construction.
type Compiled struct {
	Coverage  coverage.Report
	Metagraph *metagraph.Metagraph
}

// Sliced is the §5.1-5.3 result: internal canonical names for the
// selected outputs, the induced subgraph, and the known defect sites.
type Sliced struct {
	Internals   []string
	Slice       *slicing.Slice
	BugNodes    []int
	BugDisplays []string
	KGenFlagged []string
	BugInSlice  bool
}

// verdictStage runs the experimental set and scores it against the
// ensemble fingerprint: members fan out across the session's bounded
// worker pool, honoring the context between members.
func verdictStage(ctx context.Context, fp *Fingerprint, b *Builds, expSize, par, batch int) (*Verdict, error) {
	runs, err := runSet(ctx, b.Exper, expSize, 1000, par, batch, b.ExpRunCfg)
	if err != nil {
		return nil, err
	}
	return &Verdict{FailureRate: fp.Test.FailureRate(runs), ExpRuns: runs}, nil
}

// selectStage applies §3: the direct first-step comparison is tried
// first (the paper's recommendation); when it is inconclusive — the
// common case, since changes propagate to most variables — the
// distribution methods (lasso, median distances) take over.
func selectStage(sc Scenario, fp *Fingerprint, b *Builds, v *Verdict, solver lasso.Solver) (*Selection, lasso.PathStats, error) {
	sel := &Selection{}
	var st lasso.PathStats
	sel.MedianRanking = stats.MedianDistanceRanking(group(fp.Ensemble), group(v.ExpRuns))
	sel.FirstStep, _ = FirstStepDiff(b.Control, b.Exper, b.ExpRunCfg, 1e-12)
	if sel.FirstStep != nil && sel.FirstStep.Conclusive() {
		sel.Outputs = sel.FirstStep.Differing
		if max := sc.Options().SelectK; max > 0 && len(sel.Outputs) > max {
			sel.Outputs = sel.Outputs[:max]
		}
		return sel, st, nil
	}
	var err error
	sel.Outputs, st, err = selectOutputs(sc.Options().SelectK, fp.Test.Vars(), fp.Ensemble, v.ExpRuns, sel.MedianRanking, solver)
	if err != nil {
		return nil, st, err
	}
	return sel, st, nil
}

// traceStage runs the two-step coverage trace (§2.1) on the
// experimental build.
func traceStage(b *Builds) (*coverage.Trace, error) {
	tr := coverage.NewTrace()
	if _, err := b.Exper.Run(model.RunConfig{StopAfter: 2, Trace: tr.Record,
		RNG: b.ExpRunCfg.RNG, FMA: b.ExpRunCfg.FMA}); err != nil {
		return nil, err
	}
	return tr, nil
}

// metagraphStage filters the source tree down to the traced code and
// compiles the metagraph (§4).
func metagraphStage(mods []*fortran.Module, tr *coverage.Trace) (*Compiled, error) {
	filtered, rep := coverage.Filter(mods, tr)
	mg, err := metagraph.Build(filtered)
	if err != nil {
		return nil, err
	}
	return &Compiled{Coverage: rep, Metagraph: mg}, nil
}

// sliceStage maps selected outputs to internal canonical names (§5.1),
// induces the hybrid slice (step 4), and locates the scenario's known
// defect nodes (the union over its injections' sites) for the success
// check.
func sliceStage(sc Scenario, b *Builds, comp *Compiled, sel *Selection) (*Sliced, error) {
	mg := comp.Metagraph
	out := &Sliced{}
	for _, lbl := range sel.Outputs {
		if internal, ok := mg.OutputMap[lbl]; ok {
			out.Internals = append(out.Internals, internal)
		}
	}
	if len(out.Internals) == 0 {
		return nil, fmt.Errorf("experiments: no internal mappings for %v", sel.Outputs)
	}

	opt := slicing.Options{MinClusterSize: 4}
	if sc.Options().CAMOnly {
		c := b.Exper.Corpus
		opt.ModuleFilter = func(m string) bool { return c.IsCAM(m) }
	}
	sl, err := slicing.FromInternals(mg, out.Internals, opt)
	if err != nil {
		return nil, err
	}
	out.Slice = sl

	out.BugNodes, out.KGenFlagged, err = defectSites(sc, siteInput{
		mg: mg, control: b.Control, exper: b.Exper, expRun: b.ExpRunCfg})
	if err != nil {
		return nil, err
	}
	for _, bn := range out.BugNodes {
		out.BugDisplays = append(out.BugDisplays, mg.Nodes[bn].Display)
	}
	out.BugInSlice = len(sl.LocalIDs(out.BugNodes)) > 0
	return out, nil
}

// defectSites unions the defect locations of every injection in the
// scenario, deduplicated and sorted, so multi-defect scenarios check
// success against all their sites.
func defectSites(sc Scenario, in siteInput) ([]int, []string, error) {
	seen := map[int]bool{}
	var ids []int
	var names []string
	for _, inj := range sc.Injections() {
		if inj == nil {
			continue
		}
		is, ns, err := inj.sites(in)
		if err != nil {
			return nil, nil, fmt.Errorf("injection %s: %w", inj.ID(), err)
		}
		for _, id := range is {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		names = append(names, ns...)
	}
	sort.Ints(ids)
	return ids, names, nil
}

// refineStage runs Algorithm 5.4 with the chosen sampler strategy,
// wiring the per-call context into the refinement loop's checkpoint so
// cancellation lands between iterations.
func refineStage(ctx context.Context, b *Builds, comp *Compiled, sl *Sliced, sampler Sampler, opts core.Options) (*core.Result, error) {
	opts.Checkpoint = func() error { return ctxErr(ctx) }
	return sampler.Refine(RefineInput{
		Metagraph: comp.Metagraph,
		Slice:     sl.Slice,
		Control:   b.Control,
		Exper:     b.Exper,
		RunCfg:    b.RunCfg,
		ExpRunCfg: b.ExpRunCfg,
		BugNodes:  sl.BugNodes,
		Options:   opts,
	})
}

// assembleOutcome flattens the stage results into the monolithic
// Outcome Session.Run returns.
func assembleOutcome(sc Scenario, v *Verdict, sel *Selection, comp *Compiled, sl *Sliced, ref *core.Result) *Outcome {
	out := &Outcome{
		Name:            sc.Name(),
		Scenario:        sc,
		FailureRate:     v.FailureRate,
		SelectedOutputs: sel.Outputs,
		Internals:       sl.Internals,
		MedianRanking:   sel.MedianRanking,
		FirstStep:       sel.FirstStep,
		Coverage:        comp.Coverage,
		GraphNodes:      comp.Metagraph.G.NumNodes(),
		GraphEdges:      comp.Metagraph.G.NumEdges(),
		SliceNodes:      sl.Slice.Sub.NumNodes(),
		SliceEdges:      sl.Slice.Sub.NumEdges(),
		BugNodes:        sl.BugNodes,
		BugDisplays:     sl.BugDisplays,
		KGenFlagged:     sl.KGenFlagged,
		Refine:          ref,
		BugInSlice:      sl.BugInSlice,
		Metagraph:       comp.Metagraph,
		Slice:           sl.Slice,
	}
	out.BugLocated = ref.BugInstrumented
	if !out.BugLocated {
		bugSet := map[int]bool{}
		for _, b := range sl.BugNodes {
			bugSet[b] = true
		}
		for _, n := range ref.Final {
			if bugSet[n] {
				out.BugLocated = true
			}
		}
	}
	return out
}
