package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/core"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/lasso"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/model"
)

// Session is the compile-once, run-many entry point to the pipeline.
// Constructed once per corpus configuration, it lazily generates and
// caches everything scenarios share — the parsed corpus builds, the
// control-ensemble ECT fingerprint, the coverage-filtered metagraphs —
// and exposes the pipeline as typed stages (Verdict, SelectVariables,
// Compile, Slice, Refine) plus Run/RunAll/Table1 composing them.
//
// Cache keys are scenario fingerprints (the concatenated injection
// IDs), so user-defined and multi-defect scenarios are cached exactly
// like the prewired catalog: two scenarios injecting the same source
// patches share a corpus build. Two caches are keyed by content
// instead. A compiled metagraph is shared by every build of one
// program shape whose coverage trace executed the same code — so the
// `param:` perturbations of a tree share the clean tree's. The
// refinement memo (core.Memo) looks every refinement iteration's graph
// analysis up by the exact subgraph, so distinct scenarios that reach
// the same subgraph share it.
//
// Every stage takes a context.Context. Cancellation is honored at
// stage entry, between ensemble members, and between refinement
// iterations; it surfaces as an error matching both ErrCanceled and
// the context's own error. A canceled result is never memoized — the
// session stays fully reusable afterwards.
type Session struct {
	cfg      corpus.Config
	ensemble int
	expSize  int
	sampler  Sampler
	refine   core.Options
	workers  int
	parallel int
	batch    int
	engine   model.EngineKind
	solver   lasso.Solver
	store    *artifact.Store // optional on-disk artifact layer (WithArtifacts)

	// metagraphShares counts Compile calls served by a metagraph that
	// another build fingerprint built.
	metagraphShares atomic.Uint64

	// lassoFits/lassoIters count §3 selection-stage lasso fits and
	// their proximal-gradient iterations across the session — the
	// /metrics counters behind lasso_fits_total and
	// lasso_fit_iterations_total.
	lassoFits  atomic.Uint64
	lassoIters atomic.Uint64

	// runnerList tracks built runners for compile-cache statistics.
	runnerMu   sync.Mutex
	runnerList []*model.Runner

	mu         sync.Mutex
	fp         cell[*Fingerprint]
	clean      cell[*corpus.Corpus] // the control build's corpus; patched builds over cfg start from it
	fullMG     cell[*metagraph.Metagraph]
	runners    map[string]*cell[*model.Runner] // per source fingerprint
	compiled   map[string]*cell[*Compiled]     // per build fingerprint
	metagraphs map[string]*cell[*Compiled]     // per (program shape, trace) key; shared by compiled
	verdicts   map[string]*cell[*Verdict]      // per build fingerprint
	selections map[string]*cell[*Selection]    // per scenario fingerprint
	slices     map[string]*cell[*Sliced]
	refined    map[string]*cell[*core.Result]
}

// cell is a build-at-most-once slot; concurrent getters block on the
// first builder and then share its result. A canceled build is not
// memoized: the next getter retries with its own context, so one
// canceled investigation never poisons the session's caches. Waiters
// watch their own context too — a caller whose context is canceled
// while somebody else's build is in flight returns ErrCanceled
// immediately instead of riding out the foreign build.
type cell[T any] struct {
	mu       sync.Mutex
	done     bool
	building bool
	waitCh   chan struct{} // closed when the in-flight build finishes
	val      T
	err      error
}

func (c *cell[T]) get(ctx context.Context, build func() (T, error)) (T, error) {
	for {
		c.mu.Lock()
		if c.done {
			v, err := c.val, c.err
			c.mu.Unlock()
			return v, err
		}
		if !c.building {
			c.building = true
			c.waitCh = make(chan struct{})
			ch := c.waitCh
			c.mu.Unlock()

			v, err := build()

			c.mu.Lock()
			c.building = false
			if !isCanceled(err) {
				c.done, c.val, c.err = true, v, err
			}
			close(ch)
			c.mu.Unlock()
			return v, err
		}
		ch := c.waitCh
		c.mu.Unlock()
		if ctx == nil {
			<-ch
			continue
		}
		select {
		case <-ch:
			// Re-check: the build either memoized or was canceled
			// (in which case this waiter becomes the next builder).
		case <-ctx.Done():
			var zero T
			return zero, ctxErr(ctx)
		}
	}
}

// keyedCell returns (creating if needed) the cell for key k. Only the
// map access is serialized; building happens outside the lock.
func keyedCell[T any](mu *sync.Mutex, m map[string]*cell[T], k string) *cell[T] {
	mu.Lock()
	defer mu.Unlock()
	c, ok := m[k]
	if !ok {
		c = &cell[T]{}
		m[k] = c
	}
	return c
}

// Option configures a Session.
type Option func(*Session)

// WithEnsembleSize sets the control-ensemble size (default 40).
func WithEnsembleSize(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.ensemble = n
		}
	}
}

// WithExpSize sets the experimental-set size (default 10).
func WithExpSize(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.expSize = n
		}
	}
}

// WithSampler sets the step-7 instrumentation strategy (default
// ValueSampling).
func WithSampler(sampler Sampler) Option {
	return func(s *Session) {
		if sampler != nil {
			s.sampler = sampler
		}
	}
}

// WithRefineOptions sets the Algorithm 5.4 knobs. o.Memo is ignored:
// the session always refines through its own memo.
func WithRefineOptions(o core.Options) Option {
	return func(s *Session) { s.refine = o }
}

// WithWorkers bounds RunAll's concurrent fan-out (default GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithEngine selects the execution engine for every integration the
// session runs: the bytecode register VM (the default — each program
// shape compiles once, under the same cache layer rcad's singleflight
// dedup reuses across jobs) or the tree-walking interpreter (the
// reference oracle). The engines are pinned bit-identical, so this
// exists only as the differential-test hook; no CLI, daemon or root
// package option exposes it.
func WithEngine(k model.EngineKind) Option {
	return func(s *Session) { s.engine = k }
}

// WithLassoSolver selects the solver engine behind the §3 lasso
// selection stage: the coordinate-screened engine (the default) or the
// dense ISTA reference oracle. The engines emit bit-identical iterates
// — fitted weights, supports and iteration counts all match — so this
// exists only as the differential-test hook; no CLI or daemon exposes
// it.
func WithLassoSolver(sv lasso.Solver) Option {
	return func(s *Session) { s.solver = sv }
}

// WithParallelism bounds the worker pool used *inside* one
// investigation (default GOMAXPROCS): ensemble and experimental-set
// members integrate concurrently, and the refinement loop's graph
// kernels — edge betweenness, Girvan-Newman recomputation,
// eigenvector matvecs — shard their work across it. Kernel results
// are bit-identical at every parallelism level (fixed shard counts
// and merge order; see DESIGN.md), so WithParallelism(1) is the
// sequential reference the determinism tests compare against.
// Contexts are honored between work units. A Parallelism set
// explicitly on WithRefineOptions wins for the refinement kernels.
func WithParallelism(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.parallel = n
		}
	}
}

// DefaultBatch is the ensemble batching width sessions use: members
// fan into lockstep groups of this many SIMD-style lanes on the
// batched bytecode VM.
const DefaultBatch = 8

// WithBatch sets how many ensemble/experimental members integrate in
// lockstep on one batched VM (default DefaultBatch). WithBatch(1)
// disables batching — every member runs on its own one-lane VM.
// Outputs are pinned bit-identical at every batch width and to the
// tree walker (WithEngine); this exists only as a differential-test
// hook, and no CLI or daemon exposes it.
func WithBatch(n int) Option {
	return func(s *Session) {
		if n > 0 {
			s.batch = n
		}
	}
}

// NewSession builds a Session for one corpus configuration. Nothing is
// generated until a stage needs it. The control build is always clean;
// each scenario's injections define its own defects.
func NewSession(cfg corpus.Config, opts ...Option) *Session {
	s := &Session{
		cfg:        cfg,
		ensemble:   40,
		expSize:    10,
		sampler:    ValueSampling(0),
		runners:    make(map[string]*cell[*model.Runner]),
		compiled:   make(map[string]*cell[*Compiled]),
		metagraphs: make(map[string]*cell[*Compiled]),
		verdicts:   make(map[string]*cell[*Verdict]),
		selections: make(map[string]*cell[*Selection]),
		slices:     make(map[string]*cell[*Sliced]),
		refined:    make(map[string]*cell[*core.Result]),
	}
	for _, o := range opts {
		if o != nil {
			o(s)
		}
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.parallel <= 0 {
		s.parallel = runtime.GOMAXPROCS(0)
	}
	if s.batch <= 0 {
		s.batch = DefaultBatch
	}
	if s.refine.Parallelism <= 0 {
		s.refine.Parallelism = s.parallel
	}
	s.refine.Memo = core.NewMemo()
	return s
}

// plan lowers a scenario over the session's corpus configuration.
func (s *Session) plan(sc Scenario) (*plan, error) {
	return buildPlan(s.cfg, sc)
}

// cleanKey is the source fingerprint of the control build's
// (injection-free) plan.
func (s *Session) cleanKey() string { return (&plan{cfg: s.cfg}).sourceKey() }

// runnerFor returns the cached model build for one source fingerprint,
// generating, patching and parsing the corpus on first use.
func (s *Session) runnerFor(ctx context.Context, key string, cfg corpus.Config, patches []corpus.Patch) (*model.Runner, error) {
	c := keyedCell(&s.mu, s.runners, key)
	return c.get(ctx, func() (*model.Runner, error) {
		base, err := s.corpusFor(ctx, key, cfg, patches)
		if err != nil {
			return nil, err
		}
		r, err := model.NewRunnerEngine(base, s.engine)
		if err != nil {
			return nil, err
		}
		s.runnerMu.Lock()
		s.runnerList = append(s.runnerList, r)
		s.runnerMu.Unlock()
		return r, nil
	})
}

// LassoStats reports how many §3 selection-stage lasso fits the
// session has run and the total proximal-gradient iterations they
// consumed. rcad reports both at /metrics.
func (s *Session) LassoStats() (fits, iters uint64) {
	return s.lassoFits.Load(), s.lassoIters.Load()
}

// RefineMemoStats reports the refinement memo's lookups across the
// session: hits reused a cached iteration analysis (Girvan-Newman
// communities and sampling sites) of an identical subgraph, misses ran
// it. rcad reports both at /metrics.
func (s *Session) RefineMemoStats() (hits, misses uint64) {
	return s.refine.Memo.Stats()
}

// Sizes reports the session's control-ensemble and experimental-set
// sizes. A scenario's UF-ECT failure rate depends on both, so durable
// caches of verdicts (the search service's node evaluations) key on
// them alongside the build fingerprint.
func (s *Session) Sizes() (ensemble, expSize int) { return s.ensemble, s.expSize }

// CompileCacheStats aggregates bytecode program-cache hits and misses
// across the session's runners: a hit is an integration that reused a
// compiled program (rebound or not), a miss an actual compilation.
// rcad reports both at /metrics.
func (s *Session) CompileCacheStats() (hits, misses uint64) {
	hits, misses, _ = s.compileStats()
	return hits, misses
}

// ProgramRebinds sums, across the session's runners, the programs
// taken from a same-shape tree and rebound to the runner's own
// module-level initializer and statement literal values instead of
// compiled — one per `param:`, `scale:` or literal-replacement build
// that found its shape already compiled. rcad reports it at
// /metrics.
func (s *Session) ProgramRebinds() uint64 {
	_, _, rebinds := s.compileStats()
	return rebinds
}

// MetagraphShares counts Compile calls served by a metagraph that a
// build with another fingerprint built — one per `param:` build whose
// program shape and coverage trace match an earlier build's. rcad
// reports it at /metrics.
func (s *Session) MetagraphShares() uint64 { return s.metagraphShares.Load() }

func (s *Session) compileStats() (hits, misses, rebinds uint64) {
	s.runnerMu.Lock()
	defer s.runnerMu.Unlock()
	for _, r := range s.runnerList {
		h, m := r.CompileStats()
		hits += h
		misses += m
		rebinds += r.Rebinds()
	}
	return hits, misses, rebinds
}

// control returns the clean control build.
func (s *Session) control(ctx context.Context) (*model.Runner, error) {
	return s.runnerFor(ctx, s.cleanKey(), s.cfg, nil)
}

// buildsFor assembles the control and experimental builds for a plan.
// Runners are cached per source fingerprint, so scenarios without
// source injections (PRNG swap, FMA) share the clean build with the
// control.
func (s *Session) buildsFor(ctx context.Context, p *plan) (*Builds, error) {
	control, err := s.control(ctx)
	if err != nil {
		return nil, fmt.Errorf("experiments: control: %w", err)
	}
	exper, err := s.runnerFor(ctx, p.sourceKey(), p.cfg, p.patches)
	if err != nil {
		return nil, fmt.Errorf("experiments: experiment: %w", err)
	}
	return &Builds{Control: control, Exper: exper, ExpRunCfg: p.expRun}, nil
}

// Builds returns the control and experimental model builds for a
// scenario.
func (s *Session) Builds(ctx context.Context, sc Scenario) (*Builds, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, err := s.plan(sc)
	if err != nil {
		return nil, err
	}
	return s.buildsFor(ctx, p)
}

// Sources returns the scenario's (patched) experimental source tree —
// the corpus the interpreter runs and the metagraph compiles. The
// build is cached like any other stage; the returned slice is a copy,
// since the corpus behind it may be shared process-wide.
func (s *Session) Sources(ctx context.Context, sc Scenario) ([]corpus.File, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, err := s.plan(sc)
	if err != nil {
		return nil, err
	}
	r, err := s.runnerFor(ctx, p.sourceKey(), p.cfg, p.patches)
	if err != nil {
		return nil, err
	}
	return slices.Clone(r.Corpus.Files), nil
}

// runSet integrates members offset..offset+n-1 across a bounded pool
// of par workers, checking the context between work units so a
// canceled investigation stops promptly instead of finishing the
// whole set. The set is cut into fixed contiguous chunks of batch
// members — each chunk runs in lockstep on one batched VM
// (Runner.RunBatchMeans; batch 1 gives one-lane VMs) —
// and the chunk boundaries depend only on n and batch, never on par,
// so outputs are stored by member index and the result is identical
// at every parallelism level.
func runSet(ctx context.Context, r *model.Runner, n, offset, par, batch int, base model.RunConfig) ([]ect.RunOutput, error) {
	if batch < 1 {
		batch = 1
	}
	nc := (n + batch - 1) / batch
	if par > nc {
		par = nc
	}
	if par < 1 {
		par = 1
	}
	out := make([]ect.RunOutput, n)
	errs := make([]error, nc)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nc || failed.Load() {
					return
				}
				if err := ctxErr(ctx); err != nil {
					errs[c] = err
					failed.Store(true)
					return
				}
				lo := c * batch
				hi := lo + batch
				if hi > n {
					hi = n
				}
				members := make([]int, hi-lo)
				for i := range members {
					members[i] = offset + lo + i
				}
				res, err := r.RunBatchMeans(base, members)
				if err != nil {
					errs[c] = err
					failed.Store(true)
					return
				}
				copy(out[lo:hi], res)
			}
		}()
	}
	wg.Wait()
	// Deterministic error selection: the lowest failing chunk wins, and
	// RunBatchMeans already surfaces its lowest failing member.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fingerprint returns the cached control ensemble and its ECT PCA
// fingerprint — the scenario-independent state every Verdict shares.
func (s *Session) Fingerprint(ctx context.Context) (*Fingerprint, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return s.fp.get(ctx, func() (*Fingerprint, error) {
		control, err := s.control(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: control: %w", err)
		}
		ens, err := runSet(ctx, control, s.ensemble, 0, s.parallel, s.batch, model.RunConfig{})
		if err != nil {
			return nil, err
		}
		test, err := ect.NewTest(ens, ect.Config{})
		if err != nil {
			return nil, err
		}
		return &Fingerprint{Ensemble: ens, Test: test}, nil
	})
}

// Verdict runs the scenario's experimental set against the cached
// ensemble fingerprint and returns the UF-ECT failure rate (step 0).
// Verdicts are cached per build fingerprint — slicing options play no
// part in the experimental runs, so AVX2 and AVX2-FULL share one
// experimental set.
func (s *Session) Verdict(ctx context.Context, sc Scenario) (*Verdict, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, err := s.plan(sc)
	if err != nil {
		return nil, err
	}
	c := keyedCell(&s.mu, s.verdicts, p.buildKey())
	return c.get(ctx, func() (*Verdict, error) {
		fp, err := s.Fingerprint(ctx)
		if err != nil {
			return nil, err
		}
		b, err := s.buildsFor(ctx, p)
		if err != nil {
			return nil, err
		}
		return verdictStage(ctx, fp, b, s.expSize, s.parallel, s.batch)
	})
}

// SelectVariables applies the §3 variable selection to the scenario's
// verdict (first-step comparison, then lasso/median distances).
func (s *Session) SelectVariables(ctx context.Context, sc Scenario) (*Selection, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, err := s.plan(sc)
	if err != nil {
		return nil, err
	}
	c := keyedCell(&s.mu, s.selections, p.scenarioKey())
	return c.get(ctx, func() (*Selection, error) {
		v, err := s.Verdict(ctx, sc)
		if err != nil {
			return nil, err
		}
		fp, err := s.Fingerprint(ctx)
		if err != nil {
			return nil, err
		}
		b, err := s.buildsFor(ctx, p)
		if err != nil {
			return nil, err
		}
		sel, st, err := selectStage(sc, fp, b, v, s.solver)
		if err != nil {
			return nil, err
		}
		if st.Fits > 0 {
			s.lassoFits.Add(uint64(st.Fits))
			s.lassoIters.Add(uint64(st.Iters))
		}
		return sel, nil
	})
}

// Compile returns the coverage-filtered metagraph for the scenario's
// build configuration. Each build fingerprint runs the coverage trace
// once; the metagraph itself is shared by every build of the same
// program shape whose trace executed the same code, so scenarios
// sharing a source tree — or differing from it only in parameter
// values — compile once.
func (s *Session) Compile(ctx context.Context, sc Scenario) (*Compiled, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, err := s.plan(sc)
	if err != nil {
		return nil, err
	}
	c := keyedCell(&s.mu, s.compiled, p.buildKey())
	return c.get(ctx, func() (*Compiled, error) {
		return s.compiledFor(ctx, p)
	})
}

// Slice induces the hybrid slice for the scenario from its compiled
// metagraph and selected variables (§5.1-5.3).
func (s *Session) Slice(ctx context.Context, sc Scenario) (*Sliced, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, err := s.plan(sc)
	if err != nil {
		return nil, err
	}
	c := keyedCell(&s.mu, s.slices, p.scenarioKey())
	return c.get(ctx, func() (*Sliced, error) {
		sel, err := s.SelectVariables(ctx, sc)
		if err != nil {
			return nil, err
		}
		comp, err := s.Compile(ctx, sc)
		if err != nil {
			return nil, err
		}
		b, err := s.buildsFor(ctx, p)
		if err != nil {
			return nil, err
		}
		return sliceStage(sc, b, comp, sel)
	})
}

// Refine runs the Algorithm 5.4 iterative refinement over the
// scenario's slice with the session's sampler strategy, checking the
// context between refinement iterations.
func (s *Session) Refine(ctx context.Context, sc Scenario) (*core.Result, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, err := s.plan(sc)
	if err != nil {
		return nil, err
	}
	c := keyedCell(&s.mu, s.refined, p.scenarioKey())
	return c.get(ctx, func() (*core.Result, error) {
		sl, err := s.Slice(ctx, sc)
		if err != nil {
			return nil, err
		}
		comp, err := s.Compile(ctx, sc)
		if err != nil {
			return nil, err
		}
		b, err := s.buildsFor(ctx, p)
		if err != nil {
			return nil, err
		}
		return refineStage(ctx, b, comp, sl, s.sampler, s.refine)
	})
}

// Run composes the stages end to end for one scenario. Stage results
// are cached, so repeated runs (and stage calls before or after) reuse
// all shared work. Each stage transition is reported to the context's
// WithProgress callback, if any, before the stage is entered.
func (s *Session) Run(ctx context.Context, sc Scenario) (*Outcome, error) {
	reportStage(ctx, StageVerdict)
	v, err := s.Verdict(ctx, sc)
	if err != nil {
		return nil, err
	}
	reportStage(ctx, StageSelect)
	sel, err := s.SelectVariables(ctx, sc)
	if err != nil {
		return nil, err
	}
	reportStage(ctx, StageCompile)
	comp, err := s.Compile(ctx, sc)
	if err != nil {
		return nil, err
	}
	reportStage(ctx, StageSlice)
	sl, err := s.Slice(ctx, sc)
	if err != nil {
		return nil, err
	}
	reportStage(ctx, StageRefine)
	ref, err := s.Refine(ctx, sc)
	if err != nil {
		return nil, err
	}
	return assembleOutcome(sc, v, sel, comp, sl, ref), nil
}

// RunAll runs every scenario concurrently over the shared cached state
// with bounded worker goroutines, returning outcomes in input order.
// The ensemble fingerprint is built once up front so workers start
// from warm shared state. Cancellation aborts the fan-out promptly and
// leaves the session reusable.
func (s *Session) RunAll(ctx context.Context, scs []Scenario) ([]*Outcome, error) {
	if len(scs) == 0 {
		return nil, nil
	}
	if _, err := s.Fingerprint(ctx); err != nil {
		return nil, err
	}
	outs := make([]*Outcome, len(scs))
	errs := make([]error, len(scs))
	workers := s.workers
	if workers > len(scs) {
		workers = len(scs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() {
					continue
				}
				outs[i], errs[i] = s.Run(ctx, scs[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range scs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			if isCanceled(err) {
				return nil, err
			}
			return nil, fmt.Errorf("%s: %w", scs[i].Name(), err)
		}
	}
	return outs, nil
}

// FullMetagraph compiles (once) the unfiltered metagraph of the clean
// corpus — the full variable digraph behind Figure 4 and the §6.5
// module quotient graph.
func (s *Session) FullMetagraph(ctx context.Context) (*metagraph.Metagraph, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return s.fullMG.get(ctx, func() (*metagraph.Metagraph, error) {
		control, err := s.control(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: control: %w", err)
		}
		return metagraph.Build(control.Modules)
	})
}

// EnsembleOutputs returns the cached control-ensemble outputs.
func (s *Session) EnsembleOutputs(ctx context.Context) ([]ect.RunOutput, error) {
	fp, err := s.Fingerprint(ctx)
	if err != nil {
		return nil, err
	}
	return fp.Ensemble, nil
}

// ExperimentalOutputs integrates n experimental members (perturbation
// seeds offset..offset+n-1) under the scenario's configuration,
// reusing the cached corpus builds. Negative or overflowing bounds are
// rejected with ErrInvalidBounds before any model work happens.
func (s *Session) ExperimentalOutputs(ctx context.Context, sc Scenario, n, offset int) ([]ect.RunOutput, error) {
	if n < 0 || offset < 0 || offset > math.MaxInt-n {
		return nil, fmt.Errorf("%w: n=%d, offset=%d", ErrInvalidBounds, n, offset)
	}
	b, err := s.Builds(ctx, sc)
	if err != nil {
		return nil, err
	}
	return runSet(ctx, b.Exper, n, offset, s.parallel, s.batch, b.ExpRunCfg)
}

// Keys are the layered cache fingerprints of one scenario over the
// session's corpus configuration — the identities the Session caches
// key on, from coarsest sharing to finest:
//
//	Source   — generation parameters + source-level injections;
//	           scenarios sharing it share a parsed corpus build.
//	Build    — Source plus run-configuration injections (PRNG, FMA);
//	           scenarios sharing it share a verdict and a coverage
//	           trace. A compiled metagraph is shared more widely: by
//	           program shape and coverage trace, not by this key, so
//	           builds that differ only in parameter values share one.
//	Scenario — Build plus defect-site overrides and slicing options;
//	           scenarios sharing it share selections, slices,
//	           refinements — whole outcomes. Display names do not
//	           participate.
type Keys struct {
	Source   string
	Build    string
	Scenario string
}

// Keys returns the scenario's layered cache fingerprints over the
// session's corpus configuration without running anything. External
// caching and deduplication layers (e.g. the rcad service) key on
// these.
func (s *Session) Keys(sc Scenario) (Keys, error) {
	p, err := s.plan(sc)
	if err != nil {
		return Keys{}, err
	}
	return Keys{Source: p.sourceKey(), Build: p.buildKey(), Scenario: p.scenarioKey()}, nil
}

// Table1 reproduces the paper's Table 1 selective-FMA study over the
// session's cached state: the clean build, the ensemble fingerprint
// (when the sizes agree) and the full metagraph are all reused.
// A zero EnsembleSize inherits the session's.
func (s *Session) Table1(ctx context.Context, setup Table1Setup) ([]Table1Row, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if setup.EnsembleSize == 0 {
		setup.EnsembleSize = s.ensemble
	}
	setup = setup.withDefaults()

	runner, err := s.control(ctx)
	if err != nil {
		return nil, err
	}
	var test *ect.Test
	if setup.EnsembleSize == s.ensemble {
		fp, err := s.Fingerprint(ctx)
		if err != nil {
			return nil, err
		}
		test = fp.Test
	} else {
		ens, err := runSet(ctx, runner, setup.EnsembleSize, 0, s.parallel, s.batch, model.RunConfig{})
		if err != nil {
			return nil, err
		}
		test, err = ect.NewTest(ens, ect.Config{})
		if err != nil {
			return nil, err
		}
	}
	mg, err := s.FullMetagraph(ctx)
	if err != nil {
		return nil, err
	}
	return table1Rows(ctx, runner, test, mg, setup, s.parallel, s.batch)
}
