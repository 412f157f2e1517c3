package bytecode

import (
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// mustSame fails t unless Diff finds got and want equal.
func mustSame(t *testing.T, what string, got, want *Program) {
	t.Helper()
	if err := Diff(got, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

func parseAll(t *testing.T, srcs ...string) []*fortran.Module {
	t.Helper()
	var mods []*fortran.Module
	for _, s := range srcs {
		ms, err := fortran.ParseFile(s)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, ms...)
	}
	return mods
}

// runSteps integrates init plus nine steps on a one-lane VM of p and
// returns its captures.
func runSteps(t *testing.T, p *Program, c *corpus.Corpus) *interp.Results {
	t.Helper()
	vm, err := newOneLane(p, interp.Config{Ncol: 16, RNG: rng.NewKISS(777), SnapshotAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Call(c.DriverModule, c.InitSub); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := vm.Call(c.DriverModule, c.StepSub); err != nil {
			t.Fatal(err)
		}
	}
	vm.SnapshotModuleVars()
	return vm.Captured()
}

// TestRebindMatchesCompileParamVariants is the differential pin for
// Rebind: for every ensemble-parameter variant of the bench corpus, and
// for pairs of trees that differ only in statement literals, rebinding
// one tree's program equals (Diff) compiling the other, and runs to
// the same captures.
func TestRebindMatchesCompileParamVariants(t *testing.T) {
	base := corpus.Config{AuxModules: 40, Seed: 2}
	clean, err := corpus.Generate(base).Parse()
	if err != nil {
		t.Fatal(err)
	}
	cleanKey := fortran.ShapeKey(clean)
	skel, cleanFresh := Compile(clean), Compile(clean)
	if skel.Rebind(clean) != skel {
		t.Fatal("rebinding a program to its own tree built a new program")
	}

	variants := map[string]func(*corpus.Config){
		"turbcoef":   func(c *corpus.Config) { c.TurbCoef = 0.013 },
		"fmagain":    func(c *corpus.Config) { c.FMAGain = 3000.3 },
		"auxfmagain": func(c *corpus.Config) { c.AuxFMAGain = 0.0101 },
	}
	for name, set := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := base
			set(&cfg)
			vc := corpus.Generate(cfg)
			mods, err := vc.Parse()
			if err != nil {
				t.Fatal(err)
			}
			if fortran.ShapeKey(mods) != cleanKey {
				t.Fatal("parameter variant changed the shape key")
			}
			fresh := Compile(mods)
			if Diff(fresh, skel) == nil {
				t.Fatal("variant compiles to the clean program; the test perturbs nothing")
			}
			got := skel.Rebind(mods)
			if got == skel {
				t.Fatal("Rebind returned the skeleton for different initializer values")
			}
			mustSame(t, "Rebind(Compile(clean), variant) against Compile(variant)", got, fresh)
			mustSame(t, "rebinding back to the clean tree", got.Rebind(clean), cleanFresh)
			// The skeleton is untouched by its rebinds.
			mustSame(t, "skeleton after Rebind", skel, cleanFresh)
			vmGot, vmWant := runSteps(t, got, vc), runSteps(t, fresh, vc)
			diffMaps(t, "Outputs", vmWant.Outputs, vmGot.Outputs)
			diffMaps(t, "AllValues", vmWant.AllValues, vmGot.AllValues)
		})
	}

	// Statement-literal variants: pairs of trees that differ only in a
	// `scale:` factor, or in the literal the catalog's WSUB defect
	// replaces.
	src := corpus.Generate(base)
	scale := func(v string, f float64) []corpus.Patch {
		return []corpus.Patch{corpus.ScaleAssign{Module: "micro_mg", Subprogram: "micro_mg_tend", Var: v, Factor: f}}
	}
	pairs := map[string][2][]corpus.Patch{
		"scale-pre":   {scale("pre", 1.00001), scale("pre", 1.0001)},
		"scale-qsout": {scale("qsout", 1.00003), scale("qsout", 1.00007)},
		"wsub":        {nil, {corpus.WsubPatch}},
	}
	for name, pair := range pairs {
		t.Run(name, func(t *testing.T) {
			var trees [2][]*fortran.Module
			var corpora [2]*corpus.Corpus
			for i, patches := range pair {
				c, err := corpus.Apply(src, patches...)
				if err != nil {
					t.Fatal(err)
				}
				if trees[i], err = c.Parse(); err != nil {
					t.Fatal(err)
				}
				corpora[i] = c
			}
			if fortran.ShapeKey(trees[0]) != fortran.ShapeKey(trees[1]) {
				t.Fatal("literal-only edit changed the shape key")
			}
			pa, pb, freshA := Compile(trees[0]), Compile(trees[1]), Compile(trees[0])
			if Diff(pa, pb) == nil {
				t.Fatal("variants compile to one program; the test perturbs nothing")
			}
			got := pa.Rebind(trees[1])
			mustSame(t, "Rebind(Compile(a), b) against Compile(b)", got, pb)
			mustSame(t, "Rebind(Compile(b), a) against Compile(a)", pb.Rebind(trees[0]), freshA)
			mustSame(t, "program after Rebind", pa, freshA)
			vmGot, vmWant := runSteps(t, got, corpora[1]), runSteps(t, pb, corpora[1])
			diffMaps(t, "Outputs", vmWant.Outputs, vmGot.Outputs)
			diffMaps(t, "AllValues", vmWant.AllValues, vmGot.AllValues)
		})
	}
}

const rebindSrcA = `module consts
  real, parameter :: k = 2.0
  real :: w(:) = 1.5
  real :: z, q = -(3.0 * 0.5)
  real :: r, r(:), u(:) = 0.5
end module

module user
  use consts
  real :: y(:), s
contains
  subroutine run()
    y = w * k + q
    s = k
  end subroutine
end module
`

// rebindSrcB differs from rebindSrcA only in module-level initializer
// values (and one initializer gained by z). The repeated r pins
// allocate's rule that a name's first occurrence decides its shape.
const rebindSrcB = `module consts
  real, parameter :: k = 4.0
  real :: w(:) = -2.5
  real :: z = 7.0, q = 1.0 / 8.0
  real :: r, r(:), u(:) = 0.75
end module

module user
  use consts
  real :: y(:), s
contains
  subroutine run()
    y = w * k + q
    s = k
  end subroutine
end module
`

// rebindSrcBad replaces a module-level initializer with one that is
// not constant: construction must fail.
const rebindSrcBad = `module consts
  real, parameter :: k = 2.0
  real :: w(:) = 1.5
  real :: z, q = k * 2.0
  real :: r, r(:), u(:) = 0.5
end module

module user
  use consts
  real :: y(:), s
contains
  subroutine run()
    y = w * k + q
    s = k
  end subroutine
end module
`

func TestRebindHandWrittenPair(t *testing.T) {
	a, b := parseAll(t, rebindSrcA), parseAll(t, rebindSrcB)
	if fortran.ShapeKey(a) != fortran.ShapeKey(b) {
		t.Fatal("initializer-only edit changed the shape key")
	}
	pa, pb := Compile(a), Compile(b)
	if pa.Err() != nil || pb.Err() != nil {
		t.Fatalf("compile: %v / %v", pa.Err(), pb.Err())
	}
	mustSame(t, "Rebind(Compile(A), B) against Compile(B)", pa.Rebind(b), pb)
	mustSame(t, "Rebind(Compile(B), A) against Compile(A)", pb.Rebind(a), pa)
	// The rebound program runs B, not A.
	m, err := interp.NewMachine(b, plainCfg(3)())
	if err != nil {
		t.Fatal(err)
	}
	vm, err := newOneLane(pa.Rebind(b), plainCfg(3)())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Call("user", "run"); err != nil {
		t.Fatal(err)
	}
	if err := vm.Call("user", "run"); err != nil {
		t.Fatal(err)
	}
	m.SnapshotModuleVars()
	vm.SnapshotModuleVars()
	diffMaps(t, "AllValues", m.AllValues, vm.Captured().AllValues)
}

// initSrc is a module whose {a}, {r1}, {w}, {q} and {r2} slots take
// an initializer or none. Initializer presence is not shape, so every
// filling has one shape key, and every filling must rebind to what it
// compiles to. Initialized names sit before and after each slot, so a
// cell table that skipped uninitialized names would misplace them; r
// is redeclared in a later declaration, and q repeats within one name
// list, where the first occurrence decides its shape.
const initSrc = `module m
  real :: s0 = 1.0
  real :: a{a}
  real :: r{r1}
  real :: w(:){w}
  real :: t = 2.0, u(:) = 3.0
  real :: q, q(:){q}
  real :: r(:){r2}
  real :: v = 4.0
contains
  subroutine run()
    t = a + s0 + v
    u = w * t
  end subroutine
end module
`

// initFill fills initSrc's slots, leaving those not named empty.
func initFill(slots map[string]string) string {
	src := initSrc
	for _, k := range []string{"a", "r1", "w", "q", "r2"} {
		src = strings.ReplaceAll(src, "{"+k+"}", slots[k])
	}
	return src
}

// TestRebindShapeBlindInitializers pins Rebind's cell table against the
// one difference between same-shape trees that changes which names
// carry an initializer. Each pair adds, drops or moves initializers;
// the moves keep the number of initialized names. Rebinding either
// tree's program to the other must equal compiling it. A tree with a
// different declared-name count but the same literal count is not of
// the shape and compiles afresh.
func TestRebindShapeBlindInitializers(t *testing.T) {
	pairs := map[string][2]map[string]string{
		"scalar-added":    {nil, {"a": " = 5.0"}},
		"array-added":     {nil, {"w": " = -1.5"}},
		"scalar-to-array": {{"a": " = 5.0"}, {"w": " = 5.0"}},
		"redeclared":      {{"r1": " = 0.25"}, {"r2": " = 0.25"}},
		"repeated-added":  {nil, {"q": " = 0.75"}},
		"repeated-moved":  {{"q": " = 0.75"}, {"a": " = 0.75", "w": " = 0.75"}},
	}
	for name, pair := range pairs {
		t.Run(name, func(t *testing.T) {
			a, b := parseAll(t, initFill(pair[0])), parseAll(t, initFill(pair[1]))
			if fortran.ShapeKey(a) != fortran.ShapeKey(b) {
				t.Fatal("initializer presence changed the shape key")
			}
			pa, pb := Compile(a), Compile(b)
			if pa.Err() != nil || pb.Err() != nil {
				t.Fatalf("compile: %v / %v", pa.Err(), pb.Err())
			}
			if Diff(pa, pb) == nil {
				t.Fatal("pair compiles to one program; the test perturbs nothing")
			}
			mustSame(t, "Rebind(Compile(A), B) against Compile(B)", pa.Rebind(b), pb)
			mustSame(t, "Rebind(Compile(B), A) against Compile(A)", pb.Rebind(a), Compile(a))
		})
	}

	t.Run("name-count", func(t *testing.T) {
		a := parseAll(t, initFill(nil))
		more := parseAll(t, strings.Replace(initFill(nil), "real :: v = 4.0", "real :: v = 4.0, extra = 4.0", 1))
		fewer := parseAll(t, strings.Replace(initFill(nil), "real :: s0 = 1.0\n", "", 1))
		for _, other := range [][]*fortran.Module{more, fewer} {
			if declaredNames(other) == declaredNames(a) {
				t.Fatal("variant keeps the declared-name count")
			}
			mustSame(t, "Rebind across name counts against Compile", Compile(a).Rebind(other), Compile(other))
			mustSame(t, "Rebind back across name counts against Compile", Compile(other).Rebind(a), Compile(a))
		}
	})
}

// TestDiffComparesBits pins the Rebind oracle itself: two compiles of
// one tree are equal, a copy with its own pool of released VMs is
// equal, and an edited instruction, or a sign-of-zero or NaN-payload
// change in consts, scalInit or arrInit, is a difference.
func TestDiffComparesBits(t *testing.T) {
	src := strings.Replace(rebindSrcA, "s = k", "s = k * 3.0", 1)
	p := Compile(parseAll(t, src))
	if p.Err() != nil || len(p.consts) == 0 || len(p.scalInit) == 0 || len(p.arrInit) == 0 {
		t.Fatalf("test program lacks a value table: %v", p.Err())
	}
	mustSame(t, "two compiles", p, Compile(parseAll(t, src)))
	pooled := *p
	pooled.batchVMs = new(sync.Map)
	mustSame(t, "copy with its own VM pool", &pooled, p)
	edited := *p
	edited.procs = slices.Clone(p.procs)
	pr := *p.procs[0]
	pr.code = slices.Clone(pr.code)
	pr.code[0].a++
	edited.procs[0] = &pr
	if Diff(&edited, p) == nil {
		t.Error("Diff equates programs whose code differs")
	}

	nan1, nan2 := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())^1)
	for _, pair := range [][2]float64{{0, math.Copysign(0, -1)}, {nan1, nan2}} {
		set := map[string]func(q *Program, v float64){
			"consts": func(q *Program, v float64) {
				q.consts = append([]float64(nil), p.consts...)
				q.consts[0] = v
			},
			"scalInit": func(q *Program, v float64) {
				q.scalInit = append([]cellInit(nil), p.scalInit...)
				q.scalInit[0].val = v
			},
			"arrInit": func(q *Program, v float64) {
				q.arrInit = append([]cellInit(nil), p.arrInit...)
				q.arrInit[0].val = v
			},
		}
		for name, f := range set {
			a, b := *p, *p
			f(&a, pair[0])
			f(&b, pair[1])
			if Diff(&a, &b) == nil {
				t.Errorf("%s: Diff equates %v and %v (bits %#x, %#x)", name, pair[0], pair[1],
					math.Float64bits(pair[0]), math.Float64bits(pair[1]))
			}
		}
	}
}

// TestRebindInitializerFailure pins error parity: a same-shape tree
// whose module-level initializer does not evaluate reports exactly the
// construction error a fresh Compile does, and a failed program
// rebinds by compiling afresh.
func TestRebindInitializerFailure(t *testing.T) {
	a, bad := parseAll(t, rebindSrcA), parseAll(t, rebindSrcBad)
	if fortran.ShapeKey(a) != fortran.ShapeKey(bad) {
		t.Fatal("initializer-only edit changed the shape key")
	}
	fresh := Compile(bad)
	if fresh.Err() == nil {
		t.Fatal("non-constant initializer compiled")
	}
	got := Compile(a).Rebind(bad)
	if got.Err() == nil || got.Err().Error() != fresh.Err().Error() {
		t.Fatalf("Rebind Err() = %v; fresh Compile Err() = %v", got.Err(), fresh.Err())
	}
	if _, err := newOneLane(got, plainCfg(2)()); err == nil || err.Error() != fresh.Err().Error() {
		t.Fatalf("NewBatchVM on the failed rebind = %v; want %v", err, fresh.Err())
	}
	mustSame(t, "rebinding a failed program", fresh.Rebind(a), Compile(a))
}

// TestRebindConcurrentVMs runs VMs of a skeleton and of its rebinds at
// once: they share procs and the shape's pool of released VMs, so
// every run must still match a run of its own program's compilation
// bit for bit.
func TestRebindConcurrentVMs(t *testing.T) {
	base := corpus.Config{AuxModules: 10, Seed: 4}
	cfgs := []corpus.Config{base, base, base}
	cfgs[1].TurbCoef = 0.013
	cfgs[2].AuxFMAGain = 0.0101
	var skel *Program
	progs := make([]*Program, len(cfgs))
	corpora := make([]*corpus.Corpus, len(cfgs))
	want := make([]map[string][]float64, len(cfgs))
	for i, cfg := range cfgs {
		corpora[i] = corpus.Generate(cfg)
		mods, err := corpora[i].Parse()
		if err != nil {
			t.Fatal(err)
		}
		if skel == nil {
			skel = Compile(mods)
		}
		progs[i] = skel.Rebind(mods)
		want[i] = runSteps(t, Compile(mods), corpora[i]).AllValues
	}
	done := make(chan int)
	for g := 0; g < 6; g++ {
		go func(i int) {
			defer func() { done <- i }()
			vm, err := newOneLane(progs[i], interp.Config{Ncol: 16, RNG: rng.NewKISS(777), SnapshotAll: true})
			if err != nil {
				t.Error(err)
				return
			}
			c := corpora[i]
			calls := [][2]string{{c.DriverModule, c.InitSub}}
			for s := 0; s < 9; s++ {
				calls = append(calls, [2]string{c.DriverModule, c.StepSub})
			}
			for _, call := range calls {
				if err := vm.Call(call[0], call[1]); err != nil {
					t.Error(err)
					return
				}
			}
			vm.SnapshotModuleVars()
			defer vm.Release()
			got := vm.Captured().AllValues
			for k, w := range want[i] {
				if !sameBits(w, got[k]) {
					t.Errorf("program %d: %s differs from a run of its own compile", i, k)
					return
				}
			}
		}(g % len(progs))
	}
	for g := 0; g < 6; g++ {
		<-done
	}
}
