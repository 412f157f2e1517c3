// Package model ties the synthetic corpus to the execution engine: it
// builds an engine instance from a Corpus, applies CESM-style
// initial-condition perturbations, advances the model, and harvests
// the step-9 output global means the consistency test consumes
// (UF-CAM-ECT evaluates at time step nine, paper §2.1).
//
// Integrations run on the bytecode BatchVM (internal/bytecode,
// compiled once per Runner shape and cached): a set of members in
// lockstep lanes, a single integration on one lane, coverage traces
// included. The tree-walking interpreter (internal/interp) is its
// differential reference: NewRunnerEngine(c, EngineTree) selects it
// for the tests that pin the two engines bit-identical.
package model

import (
	"errors"
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
	// Results holds the run's captures: outfld Outputs, the
	// KernelWatch snapshot and the SnapshotAll values. They belong to
	// the caller; no engine state aliases them.
	interp.Results
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
// under in-process, and the first half of its metagraph's key: every
// Runner whose modules differ from this one's only in module-level
// initializer values and statement literal values has the same key. It
// is "" for modules that carry no shape digest; their programs are
// never shared.
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

// adoptShared installs the process-wide program of r's shape, rebound
// to r's modules, counting a rebind when the values differ. The caller
// holds progMu.
func (r *Runner) adoptShared() bool {
	if r.shape == "" {
		return false
	}
	v, ok := progCache.Load(r.shape)
	if !ok {
		return false
	}
	p := v.(*bytecode.Program)
	r.prog = p.Rebind(r.Modules)
	if r.prog != p {
		r.rebinds.Add(1)
	}
	return true
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

// Run integrates the model per cfg and returns the step-9 output
// means and the run's captures.
func (r *Runner) Run(cfg RunConfig) (*Result, error) {
	if r.engine == EngineTree {
		return r.runTree(cfg)
	}
	var res Result
	err := r.integrate(cfg, []int{cfg.Member}, func(vm *bytecode.BatchVM, _ int) {
		res.Results = vm.DetachLaneResults(0)
		res.Means = res.OutputMeans()
	})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// RunBatchMeans integrates a set of members in lockstep on one
// batched VM (internal/bytecode.BatchVM) and returns their step-9
// output means in member order — bit-identical to running each member
// through Run. Members share everything except the perturbation seed,
// so the lanes execute the same instruction stream and diverge only at
// data-dependent branches. A tree-engine Runner runs the members one
// by one. A Trace callback needs one lane per run, so base.Trace with
// more than one member is an error. On failure the error of the lowest
// failing member is returned, wrapped exactly as Run wraps it.
func (r *Runner) RunBatchMeans(base RunConfig, members []int) ([]ect.RunOutput, error) {
	if len(members) == 0 {
		return nil, nil
	}
	out := make([]ect.RunOutput, len(members))
	if r.engine == EngineTree {
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
	err := r.integrate(base, members, func(vm *bytecode.BatchVM, l int) {
		out[l] = vm.LaneResults(l).OutputMeans()
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// integrate runs init, the perturbation, the steps and the SnapshotAll
// module snapshot for members on one BatchVM lane each, then, unless a
// lane failed, hands every lane to harvest before the VM goes back to
// the program's shape. Whatever harvest keeps must not point into the
// VM.
func (r *Runner) integrate(base RunConfig, members []int, harvest func(vm *bytecode.BatchVM, lane int)) error {
	nl := len(members)
	cfg, rngs := withDefaults(base, nl)
	vm, err := r.Program().NewBatchVM(interp.Config{
		Ncol:        cfg.Ncol,
		FMA:         cfg.FMA,
		Trace:       cfg.Trace,
		KernelWatch: cfg.KernelWatch,
		SnapshotAll: cfg.SnapshotAll,
	}, rngs)
	if err != nil {
		return err
	}
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
	// scratch takes the draws for arrays the VM does not hold; they
	// are dropped, so every such array of every member shares it.
	var scratch []float64
	for l, m := range members {
		if wrap[l] != nil {
			continue
		}
		wrap[l] = perturb(func(module string, path ...string) (interp.LaneSlice, bool) {
			s, err := vm.LaneArray(l, module, path...)
			if errors.Is(err, bytecode.ErrNotHeld) {
				// No instruction of the sliced stream touches the
				// array. perturb still draws its values, into
				// scratch, so every later draw is the full stream's.
				if scratch == nil {
					scratch = make([]float64, vm.Ncol())
				}
				return interp.LaneSlice{Data: scratch, Stride: 1}, true
			}
			return s, err == nil
		}, m, cfg.PertScale)
	}
	for s := 0; s < steps(cfg); s++ {
		vm.CallAll(r.Corpus.DriverModule, r.Corpus.StepSub)
		step := s + 1
		mark(func(e error) error { return fmt.Errorf("model: step %d: %w", step, e) })
	}
	for _, e := range wrap {
		if e != nil {
			return e
		}
	}
	if cfg.SnapshotAll {
		vm.SnapshotModuleVarsAll()
	}
	for l := range members {
		harvest(vm, l)
	}
	return nil
}

// runTree is Run on the tree-walking reference engine.
func (r *Runner) runTree(cfg RunConfig) (*Result, error) {
	cfg, srcs := withDefaults(cfg, 1)
	m, err := interp.NewMachine(r.Modules, interp.Config{
		Ncol:        cfg.Ncol,
		RNG:         srcs[0],
		FMA:         cfg.FMA,
		Trace:       cfg.Trace,
		KernelWatch: cfg.KernelWatch,
		SnapshotAll: cfg.SnapshotAll,
	})
	if err != nil {
		return nil, err
	}
	if err := m.Call(r.Corpus.DriverModule, r.Corpus.InitSub); err != nil {
		return nil, fmt.Errorf("model: init: %w", err)
	}
	err = perturb(func(module string, path ...string) (interp.LaneSlice, bool) {
		a, ok := m.ModuleArray(module, path...)
		return interp.LaneSlice{Data: a, Stride: 1}, ok
	}, cfg.Member, cfg.PertScale)
	if err != nil {
		return nil, err
	}
	for s := 0; s < steps(cfg); s++ {
		if err := m.Call(r.Corpus.DriverModule, r.Corpus.StepSub); err != nil {
			return nil, fmt.Errorf("model: step %d: %w", s+1, err)
		}
	}
	if cfg.SnapshotAll {
		m.SnapshotModuleVars()
	}
	return &Result{Means: m.OutputMeans(), Results: m.Results}, nil
}

// steps is the number of steps cfg integrates.
func steps(cfg RunConfig) int {
	if cfg.StopAfter > 0 && cfg.StopAfter < Steps {
		return cfg.StopAfter
	}
	return Steps
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

// The fields perturb writes, as lookup paths. They are variables so
// that passing them through the lookup func value allocates nothing.
var (
	statePath = []string{"state", "t"}
	wpertPath = []string{"wpert"}
)

// perturb applies the member-specific initial-condition perturbation
// through the module arrays lookup resolves: a random temperature field
// perturbation (CESM pertlim-style) plus a small perturbation of the
// near-isolated wpert aerosol field so every output has nonzero
// ensemble variance. The LCG stream, draw order and target fields are
// the same on every engine, so a member's initial state is too. Each
// product is rounded before it is added (the explicit float64), so no
// architecture fuses the add into a multiply-add.
func perturb(lookup func(module string, path ...string) (interp.LaneSlice, bool), member int, scale float64) error {
	gen := rng.NewLCG(uint64(member)*2654435761 + 97)
	t, ok := lookup("physics_types", statePath...)
	if !ok {
		return fmt.Errorf("model: state variable missing")
	}
	for i, n := 0, t.Len(); i < n; i++ {
		t.Add(i, float64(scale*gauss(gen)))
	}
	if wp, ok := lookup("microp_aero", wpertPath...); ok {
		for i, n := 0, wp.Len(); i < n; i++ {
			wp.Add(i, float64(1e-3*gauss(gen)))
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
