// Package rca is a Go reproduction of "Making Root Cause Analysis
// Feasible for Large Code Bases: A Solution Approach for a Climate
// Model" (Milroy, Baker, Hammerling, Kim, Jessup, Hauser — HPDC 2019,
// arXiv:1810.13432).
//
// The package exposes the complete pipeline the paper describes:
//
//  1. an ensemble consistency test (UF-CAM-ECT style, PCA-based) that
//     issues the Pass/Fail verdict starting an investigation;
//  2. affected-output-variable selection (standardized median
//     distances and lasso logistic regression);
//  3. compilation of (FortLite) Fortran source into a variable
//     dependency digraph with metadata — the metagraph;
//  4. hybrid slicing: coverage filtering plus BFS ancestor closures
//     over canonical variable names;
//  5. the Algorithm 5.4 iterative refinement: Girvan-Newman
//     communities, eigenvector in-centrality, runtime sampling, and
//     subgraph contraction, converging on the defect;
//  6. module-level quotient-graph centrality for selective
//     instruction (FMA/AVX2) disablement.
//
// Because CESM itself is 1.5M lines of unavailable Fortran, the
// repository ships a synthetic CESM-like corpus (internal/corpus) and
// an interpreter (internal/interp) that executes it; see DESIGN.md for
// the substitution map.
//
// # Scenarios
//
// An experiment is a Scenario: a named, ordered set of composable
// Injections — source patches over corpus subprograms, a PRNG swap,
// per-module FMA toggles, ensemble-parameter perturbations — plus
// slicing options. The paper's §6/§8 catalog is prewired (WSUBBUG,
// RANDMT, GOFFGRATCH, AVX2, RANDOMBUG, DYN3BUG, and the supplement),
// but any defect the patch engine can express runs through the same
// pipeline and the same caches:
//
//	twoBugs := rca.NewScenario("WSUB+GG",
//		rca.ScenarioOptions{CAMOnly: true, SelectK: 5},
//		rca.WsubDefect(),
//		rca.GoffGratchDefect())
//
//	session := rca.NewSession(rca.DefaultCorpus())
//	out, err := session.Run(ctx, twoBugs)
//
// Running several investigations against the same corpus? One Session
// caches the corpus builds, the 40-member ensemble's ECT fingerprint
// and the compiled metagraphs — keyed by injection fingerprints, so
// user-defined and multi-defect scenarios are cached exactly like the
// prewired catalog:
//
//	outs, err := session.RunAll(ctx, rca.Experiments())
//
// Every pipeline call takes a context.Context; cancellation lands
// between ensemble members and refinement iterations, surfaces as
// ErrCanceled, and leaves the Session reusable.
package rca

import (
	"fmt"
	"strings"

	"github.com/climate-rca/rca/internal/core"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/experiments"
)

// Scenario is one root-cause investigation: a name, an ordered set of
// composable injections, and slicing options. Build one with
// NewScenario, ParseInjection or ScenarioFromJSON.
type Scenario = experiments.Scenario

// Injection is one composable element of a scenario: a source patch,
// a PRNG swap, an FMA policy, or an ensemble-parameter perturbation.
// Its ID() fingerprint drives the Session's caches.
type Injection = experiments.Injection

// ScenarioOptions control how an investigation slices (CAM-module
// restriction, lasso target support), independent of what it injects.
type ScenarioOptions = experiments.ScenarioOptions

// SourceReplace injects a defect by replacing text inside one
// assignment of a named corpus subprogram — the §6 defect family.
type SourceReplace = experiments.SourceReplace

// ScaleAssignment injects a defect by multiplying an assignment's
// right-hand side by a factor (e.g. micro_mg_tend.ratio *= 1.0001).
type ScaleAssignment = experiments.ScaleAssignment

// Outcome carries everything one experiment produces: the consistency
// verdict, selected variables, graph/slice sizes, the refinement trace
// and whether the defect was located.
type Outcome = experiments.Outcome

// CorpusConfig sizes the synthetic CESM-like corpus.
type CorpusConfig = corpus.Config

// Patch is one source-level edit over a named corpus subprogram — the
// corpus-layer mechanism behind SourceReplace/ScaleAssignment.
type Patch = corpus.Patch

// Table1Row is one row of the selective-FMA-disablement study.
type Table1Row = experiments.Table1Row

// Table1Setup sizes the selective-FMA-disablement study.
type Table1Setup = experiments.Table1Setup

// Typed errors of the pipeline; classify failures with errors.Is:
//
//	ErrCanceled              — a per-call context was canceled or
//	                           timed out (also matches ctx.Err())
//	ErrConflictingInjections — a scenario composes contradictory
//	                           injections
//	ErrUnknownSubprogram     — an injection targets a subprogram,
//	                           assignment or metagraph node the corpus
//	                           does not contain
//	ErrBadPatch              — a patch edit could not be applied
var (
	ErrCanceled              = experiments.ErrCanceled
	ErrConflictingInjections = experiments.ErrConflictingInjections
	ErrUnknownSubprogram     = corpus.ErrUnknownSubprogram
	ErrBadPatch              = corpus.ErrBadPatch
	// ErrInvalidBounds reports a run-set request with negative or
	// overflowing count/offset (Session.ExperimentalOutputs).
	ErrInvalidBounds = experiments.ErrInvalidBounds
)

// The paper's prewired experiments (§6 and supplement §8.2), as
// scenario values over the open Injection catalog.
var (
	WSUBBUG    = experiments.WSUBBUG
	RANDMT     = experiments.RANDMT
	GOFFGRATCH = experiments.GOFFGRATCH
	AVX2       = experiments.AVX2
	RANDOMBUG  = experiments.RANDOMBUG
	DYN3BUG    = experiments.DYN3BUG
	AVX2Full   = experiments.AVX2Full
	LANDBUG    = experiments.LANDBUG
)

// NewScenario composes injections into a runnable scenario.
func NewScenario(name string, opts ScenarioOptions, injs ...Injection) Scenario {
	return experiments.NewScenario(name, opts, injs...)
}

// ParseInjection parses the compact injection syntax the CLIs accept:
// "sub.var*=1.0001", "sub.var:OLD=>NEW", "prng=mt", "fma=all",
// "param:turbcoef=0.02". See the experiments package for the grammar.
func ParseInjection(s string) (Injection, error) { return experiments.ParseInjection(s) }

// ScenarioFromJSON decodes a JSON scenario definition — the format of
// `rca -scenario` files and of rcad's POST /v1/jobs request body.
// Inject entries are compact-syntax strings or structured patch
// objects; alternatively {"experiment": "GOFFGRATCH"} references the
// prewired catalog:
//
//	{"name": "WSUB+GG", "camonly": true, "selectk": 5,
//	 "inject": ["aero_run.wsub:0.20=>2.00", "prng=mt"]}
func ScenarioFromJSON(data []byte) (Scenario, error) { return experiments.ScenarioFromJSON(data) }

// ScenarioToJSON serializes a scenario to the wire format, the inverse
// of ScenarioFromJSON: parsing the result yields a scenario with the
// same name, options and injection fingerprints. This is how
// `rca -server` ships scenarios to an rcad daemon.
func ScenarioToJSON(sc Scenario) ([]byte, error) { return experiments.ScenarioToJSON(sc) }

// ScenarioFingerprint returns a scenario's stable cache identity over
// a corpus configuration — the value the Session caches key on.
func ScenarioFingerprint(cfg CorpusConfig, sc Scenario) (string, error) {
	return experiments.ScenarioFingerprint(cfg, sc)
}

// MersennePRNG swaps the model's random_number generator to Mersenne
// Twister (§6.2 RAND-MT).
func MersennePRNG() Injection { return experiments.MersennePRNG() }

// EnableFMA enables fused multiply-add in the named modules, or
// everywhere with no arguments (the §6.4 AVX2 port).
func EnableFMA(modules ...string) Injection { return experiments.EnableFMA(modules...) }

// PerturbParameter perturbs one of the ensemble-shaping corpus
// parameters ("turbcoef", "fmagain", "auxfmagain").
func PerturbParameter(name string, value float64) Injection {
	return experiments.PerturbParameter(name, value)
}

// The prewired defect catalog (§6 and §8.2), exposed as reusable
// injections so composites like WSUB+GOFFGRATCH are one NewScenario
// call away.
func WsubDefect() Injection       { return experiments.WsubDefect() }
func GoffGratchDefect() Injection { return experiments.GoffGratchDefect() }
func Dyn3Defect() Injection       { return experiments.Dyn3Defect() }
func RandomIdxDefect() Injection  { return experiments.RandomIdxDefect() }
func LandDefect() Injection       { return experiments.LandDefect() }

// DefaultCorpus returns the CI-sized corpus configuration.
func DefaultCorpus() CorpusConfig { return corpus.Default() }

// PaperScaleCorpus returns a corpus sized like the paper's 561-module
// quotient graph.
func PaperScaleCorpus() CorpusConfig { return corpus.PaperScale() }

// Experiments returns the prewired §6 scenarios in paper order.
func Experiments() []Scenario {
	return []Scenario{WSUBBUG, RANDMT, GOFFGRATCH, AVX2, RANDOMBUG, DYN3BUG}
}

// SupplementExperiments returns the supplement scenarios (Figure 15's
// unrestricted AVX2 slice and the land-module defect).
func SupplementExperiments() []Scenario {
	return []Scenario{AVX2Full, LANDBUG}
}

// AllExperiments returns every prewired scenario: the six §6
// experiments followed by the supplement.
func AllExperiments() []Scenario {
	return append(Experiments(), SupplementExperiments()...)
}

// FormatOutcome renders an experiment outcome as a human-readable
// report mirroring the quantities the paper states per experiment.
func FormatOutcome(o *Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "experiment       %s\n", o.Name)
	fmt.Fprintf(&b, "UF-ECT failure   %.0f%%\n", 100*o.FailureRate)
	if o.FirstStep != nil {
		verdict := "inconclusive"
		if o.FirstStep.Conclusive() {
			verdict = "conclusive"
		}
		fmt.Fprintf(&b, "first-step diff  %d of %d variables differ (%s)\n",
			len(o.FirstStep.Differing), o.FirstStep.Total, verdict)
	}
	fmt.Fprintf(&b, "selected outputs %s\n", strings.Join(o.SelectedOutputs, ", "))
	fmt.Fprintf(&b, "internal vars    %s\n", strings.Join(o.Internals, ", "))
	fmt.Fprintf(&b, "coverage filter  modules %d->%d (-%.0f%%), subprograms %d->%d (-%.0f%%)\n",
		o.Coverage.ModulesBefore, o.Coverage.ModulesAfter, o.Coverage.ModuleReductionPct(),
		o.Coverage.SubprogramsBefore, o.Coverage.SubprogramsAfter, o.Coverage.SubprogramReductionPct())
	fmt.Fprintf(&b, "metagraph        %d nodes, %d edges\n", o.GraphNodes, o.GraphEdges)
	fmt.Fprintf(&b, "induced subgraph %d nodes, %d edges\n", o.SliceNodes, o.SliceEdges)
	if len(o.KGenFlagged) > 0 {
		fmt.Fprintf(&b, "kgen flagged     %s\n", strings.Join(o.KGenFlagged, ", "))
	}
	fmt.Fprintf(&b, "bug locations    %s (in slice: %v)\n",
		strings.Join(o.BugDisplays, ", "), o.BugInSlice)
	for i, it := range o.Refine.Iterations {
		fmt.Fprintf(&b, "iteration %d      %d nodes / %d edges (largest SCC %d), %d communities, sampled %d, detected %d -> %s\n",
			i+1, it.Nodes, it.Edges, it.LargestSCC, len(it.Communities), len(it.Sampled), len(it.Detected), it.Action)
	}
	fmt.Fprintf(&b, "final subgraph   %d nodes\n", len(o.Refine.Final))
	fmt.Fprintf(&b, "bug located      %v (instrumented directly: %v)\n",
		o.BugLocated, o.Refine.BugInstrumented)
	return b.String()
}

// FormatTable1 renders Table 1 rows like the paper's table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Experiment                                      ECT failure rate\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-48s %3.0f%%\n", r.Config, 100*r.FailureRate)
	}
	return b.String()
}

// RefineOptions re-exports the Algorithm 5.4 knobs for custom setups.
type RefineOptions = core.Options
