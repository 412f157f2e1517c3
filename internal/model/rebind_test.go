package model

import (
	"math"
	"sync"
	"testing"

	"github.com/climate-rca/rca/internal/bytecode"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// handBuilt is a one-module tree built without the parser, so it
// carries no shape digest: `real, parameter :: k = <k>; y = k * 2.0`.
func handBuilt(k float64) []*fortran.Module {
	return []*fortran.Module{{
		Name: "hand",
		Decls: []fortran.VarDecl{
			{Names: []string{"k"}, BaseType: "real", Param: true, Init: &fortran.NumLit{Value: k}},
			{Names: []string{"y"}, BaseType: "real"},
		},
		Subprograms: []*fortran.Subprogram{{
			Name: "run",
			Body: []fortran.Stmt{&fortran.AssignStmt{
				LHS: &fortran.Ref{Name: "y"},
				RHS: &fortran.BinaryExpr{Op: fortran.STAR, L: &fortran.Ref{Name: "k"}, R: &fortran.NumLit{Value: 2}},
			}},
		}},
	}}
}

// TestRunnerHandBuiltModulesCompile pins the no-digest path: trees
// built by hand have no shape key, so each Runner compiles its own
// program and nothing is shared — two such trees differing only in an
// initializer still run their own values.
func TestRunnerHandBuiltModulesCompile(t *testing.T) {
	for _, k := range []float64{3, 5} {
		mods := handBuilt(k)
		if fortran.ShapeKey(mods) != "" {
			t.Fatal("hand-built modules have a shape key")
		}
		r := &Runner{Modules: mods}
		p := r.Program()
		if r.ProgramKey() != "" {
			t.Fatalf("ProgramKey = %q for a tree without digests", r.ProgramKey())
		}
		if _, misses := r.CompileStats(); misses != 1 || r.Rebinds() != 0 {
			t.Fatalf("k=%g: misses=%d rebinds=%d; want one compile, no rebind", k, misses, r.Rebinds())
		}
		if err := bytecode.Diff(p, bytecode.Compile(mods)); err != nil {
			t.Fatalf("k=%g: Runner program differs from a fresh compile: %v", k, err)
		}
		// SnapshotAll: module variables are only defined after a run
		// that takes snapshots; others run the output slice.
		vm, err := p.NewBatchVM(interp.Config{Ncol: 2, SnapshotAll: true}, []rng.Source{rng.NewKISS(1)})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.CallAll("hand", "run")[0]; err != nil {
			t.Fatal(err)
		}
		vm.SnapshotModuleVarsAll()
		if y := vm.LaneResults(0).AllValues["hand::::y"]; len(y) != 1 || y[0] != 2*k {
			t.Fatalf("k=%g: y = %v, want %g", k, y, 2*k)
		}
		vm.Release()
	}
}

// TestRunnerParamVariantRebinds pins the shape-keyed cache: a Runner
// over a parameter perturbation of a compiled tree takes that program
// rebound to its own values — counted as a hit and a rebind, never a
// miss — and the result is the program a fresh compile would build.
func TestRunnerParamVariantRebinds(t *testing.T) {
	base := corpus.Config{AuxModules: 6, Seed: 71}
	clean, err := NewRunner(corpus.Generate(base))
	if err != nil {
		t.Fatal(err)
	}
	clean.Program()
	cfg := base
	cfg.TurbCoef = 0.017
	r, err := NewRunner(corpus.Generate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if r.ProgramKey() == "" || r.ProgramKey() != clean.ProgramKey() {
		t.Fatalf("variant ProgramKey %q, clean %q; want equal and non-empty", r.ProgramKey(), clean.ProgramKey())
	}
	p := r.Program()
	if hits, misses := r.CompileStats(); hits != 1 || misses != 0 || r.Rebinds() != 1 {
		t.Fatalf("hits=%d misses=%d rebinds=%d; want 1, 0, 1", hits, misses, r.Rebinds())
	}
	if p == clean.Program() {
		t.Fatal("variant runs the clean program")
	}
	if err := bytecode.Diff(p, bytecode.Compile(r.Modules)); err != nil {
		t.Fatalf("rebound program differs from a fresh compile of the variant: %v", err)
	}
}

// TestRunnerConcurrentParamVariants builds Runners over several
// parameter variants of one tree at once: whichever program reaches the
// process-wide cache first becomes the shared skeleton, and every
// Runner must still end up with exactly the program a fresh compile of
// its own tree builds.
func TestRunnerConcurrentParamVariants(t *testing.T) {
	base := corpus.Config{AuxModules: 6, Seed: 73}
	runners := make([]*Runner, 6)
	for i := range runners {
		cfg := base
		cfg.TurbCoef = 0.01 + 0.001*float64(i)
		r, err := NewRunner(corpus.Generate(cfg))
		if err != nil {
			t.Fatal(err)
		}
		runners[i] = r
	}
	progs := make([]*bytecode.Program, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			progs[i] = r.Program()
		}(i, r)
	}
	wg.Wait()
	for i, r := range runners {
		if err := bytecode.Diff(progs[i], bytecode.Compile(r.Modules)); err != nil {
			t.Fatalf("runner %d: program differs from a fresh compile of its tree: %v", i, err)
		}
	}
}

// TestSharedTreeMatchesFreshParse is the differential check behind
// the parse layer's subprogram sharing: a Runner over a parameter
// perturbation, whose changed modules hold the clean tree's subprogram
// nodes, compiles to the same program and integrates to the same
// bits as a Runner over fresh ParseFile trees of the same files.
func TestSharedTreeMatchesFreshParse(t *testing.T) {
	base := corpus.Config{AuxModules: 12, Seed: 77}
	clean, err := NewRunner(corpus.Generate(base))
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.AuxFMAGain = 0.0173
	c := corpus.Generate(cfg)
	shared, err := NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	var fresh []*fortran.Module
	sharedSubs := 0
	for i, f := range c.Files {
		ms, err := fortran.ParseFile(f.Source)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, ms...)
		if m := shared.Modules[i]; m != clean.Modules[i] && len(m.Subprograms) > 0 &&
			m.Subprograms[0] == clean.Modules[i].Subprograms[0] {
			sharedSubs++
		}
	}
	if sharedSubs == 0 {
		t.Fatal("no changed module of the perturbed tree shares the clean tree's subprograms")
	}
	freshRunner := &Runner{Corpus: c, Modules: fresh}

	want := freshRunner.Program()
	if err := bytecode.Diff(bytecode.Compile(shared.Modules), want); err != nil {
		t.Fatalf("compiling the shared tree differs from compiling fresh trees: %v", err)
	}
	if err := bytecode.Diff(shared.Program(), want); err != nil {
		t.Fatalf("the shared Runner's program differs from the fresh Runner's: %v", err)
	}
	members := []int{0, 1, 2, 1000}
	got, err := shared.RunBatchMeans(RunConfig{}, members)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := freshRunner.RunBatchMeans(RunConfig{}, members)
	if err != nil {
		t.Fatal(err)
	}
	for i := range members {
		if len(got[i]) != len(exp[i]) {
			t.Fatalf("member %d: %d outputs, fresh %d", members[i], len(got[i]), len(exp[i]))
		}
		for k, v := range exp[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(v) {
				t.Fatalf("member %d output %s: shared %v, fresh %v", members[i], k, got[i][k], v)
			}
		}
	}
}
