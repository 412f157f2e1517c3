// Package model ties the synthetic corpus to the execution engine: it
// builds an engine instance from a Corpus, applies CESM-style
// initial-condition perturbations, advances the model, and harvests
// the step-9 output global means the consistency test consumes
// (UF-CAM-ECT evaluates at time step nine, paper §2.1).
//
// Integrations run on the bytecode register VM (internal/bytecode,
// compiled once per Runner shape and cached), coverage traces
// included. The tree-walking interpreter (internal/interp) is its
// differential reference: NewRunnerEngine(c, EngineTree) selects it
// for the tests that pin the two engines bit-identical.
package model

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/climate-rca/rca/internal/bytecode"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// Steps is the UF-ECT evaluation horizon.
const Steps = 9

// RNGKind selects the model's random_number generator.
type RNGKind int

// Generator choices.
const (
	RNGDefault RNGKind = iota // KISS, the CESM-like default
	RNGMersenne
)

// EngineKind selects the execution engine a Runner integrates on.
type EngineKind int

// Engine choices. The zero value is the bytecode VM; EngineTree is
// the tree-walking reference oracle.
const (
	EngineBytecode EngineKind = iota
	EngineTree
)

// RunConfig configures one model integration.
type RunConfig struct {
	Ncol int // columns; 0 = 16
	// Member seeds the initial-condition perturbation (ensemble member
	// id or experimental run id).
	Member int
	// PertScale is the absolute temperature perturbation magnitude.
	// 0 selects the default 1e-9 (CESM uses O(1e-14) relative, which
	// at T≈280 is the same order of magnitude).
	PertScale float64
	// RNG picks the random_number generator (RAND-MT swaps this).
	RNG RNGKind
	// RNGSeed seeds the model PRNG; it is deliberately identical for
	// every member (CESM's PRNG streams are reproducible), so PRNG
	// values are not a source of ensemble spread.
	RNGSeed uint64
	// FMA enables fused multiply-add per module (nil = all disabled).
	FMA func(module string) bool
	// Trace receives subprogram entries (coverage runs).
	Trace func(module, subprogram string)
	// KernelWatch is the module::subprogram to snapshot (KGen runs).
	KernelWatch string
	// SnapshotAll captures every variable's final values keyed by
	// metagraph node key — the runtime-sampling instrumentation.
	SnapshotAll bool
	// StopAfter limits the number of steps (0 = full 9 steps); the
	// coverage filter runs only 2 steps, per §2.1.
	StopAfter int
}

// Result is one completed integration.
type Result struct {
	// Means maps output label to global mean at the final step.
	Means ect.RunOutput
	// Engine is the finished execution engine (exposes the captured
	// Outputs/Kernel/AllValues through Captured()).
	Engine interp.Engine
}

// Runner caches the parsed corpus — and, for the bytecode engine, the
// compiled program — for repeated integrations. It is safe for
// concurrent use: ensemble members fan out over one Runner.
type Runner struct {
	Corpus  *corpus.Corpus
	Modules []*fortran.Module

	engine EngineKind
	shape  string // fortran.ShapeKey of Modules; "" when it has none

	progMu  sync.Mutex
	prog    *bytecode.Program
	hits    atomic.Uint64
	misses  atomic.Uint64
	rebinds atomic.Uint64
}

// NewRunner parses the corpus once; integrations run on the bytecode
// VM.
func NewRunner(c *corpus.Corpus) (*Runner, error) {
	return NewRunnerEngine(c, EngineBytecode)
}

// NewRunnerEngine parses the corpus once and fixes the execution
// engine for all its integrations.
func NewRunnerEngine(c *corpus.Corpus, engine EngineKind) (*Runner, error) {
	mods, err := c.Parse()
	if err != nil {
		return nil, err
	}
	return &Runner{Corpus: c, Modules: mods, engine: engine, shape: fortran.ShapeKey(mods)}, nil
}

// progCache shares compiled programs process-wide, keyed by the shape
// key of the source tree: trees that differ only in module-level
// initializer values and statement literal values — every `param:`
// perturbation of one source, every `scale:` factor of one assignment,
// every literal replacement — share one compiled skeleton, each
// rebinding it to its own values (bytecode.Program.Rebind). Programs
// are immutable, so sharing is safe. Only runnable programs are
// shared.
var (
	progCache     sync.Map // shape key → *bytecode.Program
	progCacheSize atomic.Int64
)

const progCacheMax = 128

// ProgramKey is the shape key the Runner's compiled program is shared
// under, in-process and in the artifact store: every Runner whose
// modules differ from this one's only in module-level initializer
// values and statement literal values has the same key. It is "" for
// modules that carry no shape digest; their programs are never shared.
func (r *Runner) ProgramKey() string { return r.shape }

// Program returns the compiled bytecode program, compiling on first
// use. It is the Session's cached build artifact: every scenario
// sharing this Runner's source fingerprint reuses it, and through the
// process-wide layer so does every other Runner of the same shape.
func (r *Runner) Program() *bytecode.Program {
	r.progMu.Lock()
	defer r.progMu.Unlock()
	if r.prog != nil || r.adoptShared() {
		r.hits.Add(1)
		return r.prog
	}
	r.misses.Add(1)
	r.prog = bytecode.Compile(r.Modules)
	r.share()
	return r.prog
}

// SharedProgram installs the process-wide program of this Runner's
// shape, rebound to the Runner's own values, and reports whether the
// Runner now has a program. It never compiles.
func (r *Runner) SharedProgram() bool {
	r.progMu.Lock()
	defer r.progMu.Unlock()
	return r.prog != nil || r.adoptShared()
}

// SetProgram installs a precompiled program of this Runner's shape
// (typically decoded from the artifact store, where it may have been
// compiled from a perturbed sibling tree) as its bytecode build
// artifact, rebound to the Runner's values, so integrations skip
// compilation entirely. A program the Runner already has wins, and so
// does the process-wide program of its shape (one copy of the code
// stays in memory). Otherwise p is shared
// process-wide so sibling Runners of the same shape reuse it too.
func (r *Runner) SetProgram(p *bytecode.Program) {
	if p == nil {
		return
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	if r.prog != nil || r.adoptShared() {
		return
	}
	r.adopt(p)
	r.share()
}

// adoptShared installs the process-wide program of r's shape, if any.
// The caller holds progMu.
func (r *Runner) adoptShared() bool {
	if r.shape == "" {
		return false
	}
	v, ok := progCache.Load(r.shape)
	if !ok {
		return false
	}
	r.adopt(v.(*bytecode.Program))
	return true
}

// adopt installs p rebound to r's modules, counting a rebind when the
// values differ. The caller holds progMu.
func (r *Runner) adopt(p *bytecode.Program) {
	r.prog = p.Rebind(r.Modules)
	if r.prog != p {
		r.rebinds.Add(1)
	}
}

// share offers r's runnable program to the process-wide cache. The
// caller holds progMu.
func (r *Runner) share() {
	if r.shape == "" || r.prog.Err() != nil || progCacheSize.Load() >= progCacheMax {
		return
	}
	if _, loaded := progCache.LoadOrStore(r.shape, r.prog); !loaded {
		progCacheSize.Add(1)
	}
}

// CompileStats reports program-cache hits and misses (rcad's /metrics
// surfaces the session-wide aggregate). A hit is an integration that
// reused a compiled program, rebound or not; a miss is a compilation.
func (r *Runner) CompileStats() (hits, misses uint64) {
	return r.hits.Load(), r.misses.Load()
}

// Rebinds reports how many times the Runner took a same-shape tree's
// compiled program and rebound it to its own values instead of
// compiling.
func (r *Runner) Rebinds() uint64 { return r.rebinds.Load() }

// engineFor builds the engine instance for one integration.
func (r *Runner) engineFor(cfg RunConfig, src rng.Source) (interp.Engine, error) {
	icfg := interp.Config{
		Ncol:        cfg.Ncol,
		RNG:         src,
		FMA:         cfg.FMA,
		Trace:       cfg.Trace,
		KernelWatch: cfg.KernelWatch,
		SnapshotAll: cfg.SnapshotAll,
	}
	if r.engine == EngineTree {
		return interp.NewMachine(r.Modules, icfg)
	}
	return r.Program().NewVM(icfg)
}

// Run integrates the model per cfg and returns the step-9 output
// means.
func (r *Runner) Run(cfg RunConfig) (*Result, error) {
	cfg, srcs := withDefaults(cfg, 1)
	eng, err := r.engineFor(cfg, srcs[0])
	if err != nil {
		return nil, err
	}
	if err := eng.Call(r.Corpus.DriverModule, r.Corpus.InitSub); err != nil {
		return nil, fmt.Errorf("model: init: %w", err)
	}
	if err := perturb(eng, cfg); err != nil {
		return nil, err
	}
	steps := Steps
	if cfg.StopAfter > 0 && cfg.StopAfter < Steps {
		steps = cfg.StopAfter
	}
	for s := 0; s < steps; s++ {
		if err := eng.Call(r.Corpus.DriverModule, r.Corpus.StepSub); err != nil {
			return nil, fmt.Errorf("model: step %d: %w", s+1, err)
		}
	}
	if cfg.SnapshotAll {
		eng.SnapshotModuleVars()
	}
	return &Result{Means: eng.Captured().OutputMeans(), Engine: eng}, nil
}

// RunBatchMeans integrates a set of members in lockstep on one
// batched VM (internal/bytecode.BatchVM) and returns their step-9
// output means in member order — bit-identical to running each member
// through Run. Members share everything except the perturbation seed,
// so the lanes execute the same instruction stream and diverge only at
// data-dependent branches. Configurations the batched engine cannot
// express (a tree-engine Runner, Trace callbacks) and single-member
// sets fall back to solo runs. On failure the error of the lowest
// failing member is returned, wrapped exactly as Run wraps it.
func (r *Runner) RunBatchMeans(base RunConfig, members []int) ([]ect.RunOutput, error) {
	if len(members) == 0 {
		return nil, nil
	}
	if r.engine == EngineTree || base.Trace != nil || len(members) == 1 {
		out := make([]ect.RunOutput, len(members))
		for i, m := range members {
			cfg := base
			cfg.Member = m
			res, err := r.Run(cfg)
			if err != nil {
				return nil, err
			}
			out[i] = res.Means
		}
		return out, nil
	}
	nl := len(members)
	cfg, rngs := withDefaults(base, nl)
	vm, err := r.Program().NewBatchVM(interp.Config{
		Ncol:        cfg.Ncol,
		FMA:         cfg.FMA,
		KernelWatch: cfg.KernelWatch,
		SnapshotAll: cfg.SnapshotAll,
	}, rngs)
	if err != nil {
		return nil, err
	}
	// The VM goes back to the program's shape once the means are
	// harvested: nothing returned points into it.
	defer vm.Release()
	// wrap holds each lane's first error with Run's phase wrapping; a
	// lane's sticky VM error freezes it, so later phases cannot
	// overwrite an earlier failure.
	wrap := make([]error, nl)
	mark := func(f func(error) error) {
		for l, e := range vm.LaneErrs() {
			if e != nil && wrap[l] == nil {
				wrap[l] = f(e)
			}
		}
	}
	vm.CallAll(r.Corpus.DriverModule, r.Corpus.InitSub)
	mark(func(e error) error { return fmt.Errorf("model: init: %w", e) })
	for l, m := range members {
		if wrap[l] != nil {
			continue
		}
		c := cfg
		c.Member = m
		if err := perturbLane(vm, l, c); err != nil {
			wrap[l] = err
		}
	}
	steps := Steps
	if cfg.StopAfter > 0 && cfg.StopAfter < Steps {
		steps = cfg.StopAfter
	}
	for s := 0; s < steps; s++ {
		vm.CallAll(r.Corpus.DriverModule, r.Corpus.StepSub)
		step := s + 1
		mark(func(e error) error { return fmt.Errorf("model: step %d: %w", step, e) })
	}
	if cfg.SnapshotAll {
		vm.SnapshotModuleVarsAll()
	}
	for _, e := range wrap {
		if e != nil {
			return nil, e
		}
	}
	out := make([]ect.RunOutput, nl)
	for l := range members {
		out[l] = vm.LaneResults(l).OutputMeans()
	}
	return out, nil
}

// withDefaults fills cfg's zero-valued Ncol, PertScale and RNGSeed
// and returns it with n fresh random_number generators, one per lane,
// all seeded alike.
func withDefaults(cfg RunConfig, n int) (RunConfig, []rng.Source) {
	if cfg.Ncol == 0 {
		cfg.Ncol = 16
	}
	if cfg.PertScale == 0 {
		cfg.PertScale = 1e-9
	}
	if cfg.RNGSeed == 0 {
		cfg.RNGSeed = 777
	}
	srcs := make([]rng.Source, n)
	for i := range srcs {
		if cfg.RNG == RNGMersenne {
			srcs[i] = rng.NewMT19937(cfg.RNGSeed)
		} else {
			srcs[i] = rng.NewKISS(cfg.RNGSeed)
		}
	}
	return cfg, srcs
}

// perturb applies the member-specific initial-condition perturbation:
// a random temperature field perturbation (CESM pertlim-style) plus a
// small perturbation of the near-isolated wpert aerosol field so every
// output has nonzero ensemble variance.
func perturb(eng interp.Engine, cfg RunConfig) error {
	gen := rng.NewLCG(uint64(cfg.Member)*2654435761 + 97)
	t, ok := eng.ModuleArray("physics_types", "state", "t")
	if !ok {
		return fmt.Errorf("model: state variable missing")
	}
	for i := range t {
		t[i] += cfg.PertScale * gauss(gen)
	}
	if wp, ok := eng.ModuleArray("microp_aero", "wpert"); ok {
		for i := range wp {
			wp[i] += 1e-3 * gauss(gen)
		}
	}
	return nil
}

// perturbLane applies perturb's member-specific perturbation to one
// lane of a batched VM through strided LaneSlice views — the same LCG
// stream, draw order and target fields, so the lane's initial state is
// bit-identical to a solo run of that member.
func perturbLane(vm *bytecode.BatchVM, lane int, cfg RunConfig) error {
	gen := rng.NewLCG(uint64(cfg.Member)*2654435761 + 97)
	t, ok := vm.LaneArray(lane, "physics_types", "state", "t")
	if !ok {
		return fmt.Errorf("model: state variable missing")
	}
	for i, n := 0, t.Len(); i < n; i++ {
		t.Add(i, cfg.PertScale*gauss(gen))
	}
	if wp, ok := vm.LaneArray(lane, "microp_aero", "wpert"); ok {
		for i, n := 0, wp.Len(); i < n; i++ {
			wp.Add(i, 1e-3*gauss(gen))
		}
	}
	return nil
}

// gauss draws a standard normal via Box-Muller.
func gauss(g *rng.LCG) float64 {
	u1 := g.Float64()
	for u1 == 0 {
		u1 = g.Float64()
	}
	u2 := g.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Ensemble integrates members 0..n-1 with the base configuration.
func (r *Runner) Ensemble(n int, base RunConfig) ([]ect.RunOutput, error) {
	out := make([]ect.RunOutput, 0, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Member = i
		res, err := r.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Means)
	}
	return out, nil
}

// ExperimentalSet integrates members offset..offset+n-1 (disjoint from
// the ensemble's perturbation seeds).
func (r *Runner) ExperimentalSet(n, offset int, base RunConfig) ([]ect.RunOutput, error) {
	out := make([]ect.RunOutput, 0, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Member = offset + i
		res, err := r.Run(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, res.Means)
	}
	return out, nil
}
