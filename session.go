package rca

import (
	"context"

	"github.com/climate-rca/rca/internal/core"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/experiments"
)

// Session is the compile-once, run-many entry point: constructed once
// per corpus configuration, it caches the generated corpus builds, the
// control-ensemble ECT fingerprint and the compiled metagraphs, and
// exposes the pipeline as typed stages plus Run/RunAll/Table1
// composing them. Cache keys are scenario fingerprints (concatenated
// injection IDs), so user-defined and multi-defect scenarios share
// work exactly like the prewired catalog. A Session is safe for
// concurrent use.
//
// Every call takes a context.Context; cancellation is honored at
// stage entry, between ensemble members, and between refinement
// iterations, surfaces as ErrCanceled (also matching the context's
// own error), and is never memoized — the Session stays reusable
// after a canceled investigation.
//
//	session := rca.NewSession(rca.DefaultCorpus(),
//		rca.WithEnsembleSize(40),
//		rca.WithSampler(rca.ValueSampling(0)))
//	outs, err := session.RunAll(ctx, rca.Experiments())
type Session = experiments.Session

// Option configures a Session (functional options for NewSession).
type Option = experiments.Option

// Sampler is the step-7 instrumentation strategy used by the
// refinement loop; see ValueSampling, ReachSampling, GradedSampling.
type Sampler = experiments.Sampler

// Stage names one pipeline stage of Session.Run, in execution order:
// StageVerdict, StageSelect, StageCompile, StageSlice, StageRefine.
type Stage = experiments.Stage

// The pipeline stages Session.Run reports, in order.
const (
	StageVerdict = experiments.StageVerdict
	StageSelect  = experiments.StageSelect
	StageCompile = experiments.StageCompile
	StageSlice   = experiments.StageSlice
	StageRefine  = experiments.StageRefine
)

// Stages lists the pipeline stages in execution order.
func Stages() []Stage { return experiments.Stages() }

// WithProgress returns a context that makes Session.Run report each
// stage transition to f before entering the stage — the hook rcad's
// job progress events are built on. Cached stages still report: the
// callback narrates the investigation's logical progress. f must be
// safe for concurrent use when the context is shared across goroutines
// (RunAll fan-out).
func WithProgress(ctx context.Context, f func(Stage)) context.Context {
	return experiments.WithProgress(ctx, f)
}

// ScenarioKeys are the layered cache fingerprints of one scenario over
// a session's corpus configuration (Source ⊂ Build ⊂ Scenario); see
// Session.Keys. External caching and deduplication layers — rcad's
// singleflight job dedup, its outcome store — key on these.
type ScenarioKeys = experiments.Keys

// Stage payloads of the Session API.
type (
	// Verdict is the UF-ECT consistency verdict (pipeline step 0).
	Verdict = experiments.Verdict
	// Selection is the §3 affected-variable selection.
	Selection = experiments.Selection
	// Compiled is the coverage-filtered metagraph (§4).
	Compiled = experiments.Compiled
	// Sliced is the induced subgraph plus known defect sites (§5).
	Sliced = experiments.Sliced
	// RefineResult is the Algorithm 5.4 refinement trace.
	RefineResult = core.Result
	// RunOutput maps output labels to step-9 global means.
	RunOutput = ect.RunOutput
)

// NewSession builds a Session for one corpus configuration. Nothing is
// generated until a stage needs it; every expensive artifact (corpus
// build, ensemble, metagraph) is then cached for the session's
// lifetime under the requesting scenario's injection fingerprints.
func NewSession(cfg CorpusConfig, opts ...Option) *Session {
	return experiments.NewSession(cfg, opts...)
}

// WithEnsembleSize sets the control-ensemble size (default 40, the
// paper's choice).
func WithEnsembleSize(n int) Option { return experiments.WithEnsembleSize(n) }

// WithExpSize sets the experimental-set size (default 10).
func WithExpSize(n int) Option { return experiments.WithExpSize(n) }

// WithSampler selects the step-7 instrumentation strategy (default
// ValueSampling).
func WithSampler(s Sampler) Option { return experiments.WithSampler(s) }

// WithRefineOptions sets the Algorithm 5.4 knobs. Memo is ignored: the
// session always refines through its own memo.
func WithRefineOptions(o RefineOptions) Option { return experiments.WithRefineOptions(o) }

// WithWorkers bounds RunAll's concurrent fan-out (default GOMAXPROCS).
func WithWorkers(n int) Option { return experiments.WithWorkers(n) }

// WithParallelism bounds the worker pool used inside one investigation
// (default GOMAXPROCS): ensemble and experimental-set members integrate
// concurrently and the refinement loop's graph kernels (edge
// betweenness, Girvan-Newman, eigenvector matvecs) shard across it.
// Results are bit-identical at every parallelism level —
// WithParallelism(1) is the sequential reference — so this is purely a
// wall-clock knob. Contexts are honored between work units.
func WithParallelism(n int) Option { return experiments.WithParallelism(n) }

// ValueSampling instruments refinement nodes with real runtime value
// snapshots; tol <= 0 selects the default normalized-RMS tolerance.
func ValueSampling(tol float64) Sampler { return experiments.ValueSampling(tol) }

// ReachSampling simulates instrumentation by bug-node reachability —
// the paper's §5.2 simulation.
func ReachSampling() Sampler { return experiments.ReachSampling() }

// GradedSampling ranks sampled differences by magnitude and contracts
// to the greatest difference at fixed points (§6.3 extension).
func GradedSampling() Sampler { return experiments.GradedSampling() }
