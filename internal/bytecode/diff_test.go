package bytecode

import (
	"math"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// sameBits compares float slices bit for bit (NaN payloads and signed
// zeros included — the engines must agree exactly).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func diffMaps(t *testing.T, label string, want, got map[string][]float64) {
	t.Helper()
	for k, wv := range want {
		gv, ok := got[k]
		if !ok {
			t.Errorf("%s: key %q missing from VM", label, k)
			continue
		}
		if !sameBits(wv, gv) {
			t.Errorf("%s: key %q differs: tree=%v vm=%v", label, k, wv, gv)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: VM has extra key %q", label, k)
		}
	}
}

// oneLane drives a one-lane BatchVM through the tree walker's
// entry-call surface, so the differential tests call both engines
// alike.
type oneLane struct{ *BatchVM }

// newOneLane builds a one-lane VM of p for cfg, defaulting the PRNG as
// interp.NewMachine does.
func newOneLane(p *Program, cfg interp.Config) (oneLane, error) {
	src := cfg.RNG
	if src == nil {
		src = rng.NewKISS(1)
	}
	vm, err := p.NewBatchVM(cfg, []rng.Source{src})
	return oneLane{vm}, err
}

// Call invokes an entry subroutine and returns the lane's error.
func (v oneLane) Call(module, name string) error { return v.CallAll(module, name)[0] }

// SnapshotModuleVars records module-level variables into the lane's
// AllValues, as the walker's SnapshotModuleVars does.
func (v oneLane) SnapshotModuleVars() { v.SnapshotModuleVarsAll() }

// Captured returns the lane's capture maps.
func (v oneLane) Captured() *interp.Results { return v.LaneResults(0) }

// runBoth executes the same entry calls on both engines and requires
// bit-identical captures, the exit snapshots of a failed run included. Config instances are cloned so each engine
// gets its own PRNG stream.
func runBoth(t *testing.T, mkCfg func() interp.Config, srcs []string, calls ...[2]string) (*interp.Machine, *interp.Results) {
	t.Helper()
	var mods []*fortran.Module
	for _, s := range srcs {
		ms, err := fortran.ParseFile(s)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, ms...)
	}
	m, merr := interp.NewMachine(mods, mkCfg())
	prog := Compile(mods)
	vm, verr := newOneLane(prog, mkCfg())
	if (merr == nil) != (verr == nil) {
		t.Fatalf("construction disagreement: tree=%v vm=%v", merr, verr)
	}
	if merr != nil {
		return nil, nil
	}
	for _, c := range calls {
		em := m.Call(c[0], c[1])
		ev := vm.Call(c[0], c[1])
		if (em == nil) != (ev == nil) {
			t.Fatalf("call %s::%s disagreement: tree=%v vm=%v", c[0], c[1], em, ev)
		}
		if em != nil {
			break
		}
	}
	// A failed lane keeps its exit snapshots but takes no module-level
	// snapshot.
	if vm.LaneErrs()[0] == nil {
		m.SnapshotModuleVars()
		vm.SnapshotModuleVars()
	}
	got := vm.Captured()
	diffMaps(t, "Outputs", m.Outputs, got.Outputs)
	diffMaps(t, "Kernel", m.Kernel, got.Kernel)
	diffMaps(t, "AllValues", m.AllValues, got.AllValues)
	return m, got
}

func plainCfg(ncol int) func() interp.Config {
	return func() interp.Config {
		return interp.Config{Ncol: ncol, SnapshotAll: true, RNG: rng.NewKISS(7)}
	}
}

func TestVMScalarAndArrayBasics(t *testing.T) {
	runBoth(t, plainCfg(4), []string{`
module m
  real :: x, a(:), b(:), c(:)
  real, parameter :: p = 2.5 * 2.0
contains
  subroutine s()
    integer :: i
    x = 2.0 + 3.0 * 4.0 ** 2.0
    do i = 1, 4
      a(i) = i * p
      b(i) = 10.0 - i
    end do
    c = a * b + 1.0
    c = max(0.0, min(9000.0, c)) + sqrt(abs(a)) * 0.01
    c = shift(c, 1) + shift(c, -1)
    call outfld('C', c)
    call outfld('X', x)
  end subroutine
end module
`}, [2]string{"m", "s"})
}

func TestVMDerivedAndInterfaces(t *testing.T) {
	runBoth(t, plainCfg(3), []string{`
module phys
  type ps
    real :: t(:)
    real :: q(:)
    real :: scale
  end type
  type(ps) :: state
contains
  subroutine init()
    state%t = 280.0
    state%q = 0.01
    state%scale = 3.5
  end subroutine
  subroutine s()
    type(ps) :: other
    state%t = state%t + state%q * 100.0
    state%t(2) = 99.5
    other = state
    other%q = other%q * 2.0
    call outfld('T', state%t)
    call outfld('OQ', other%q)
    call outfld('SC', other%scale)
  end subroutine
end module
`}, [2]string{"phys", "init"}, [2]string{"phys", "s"})
}

func TestVMFunctionsElementalAndRecursion(t *testing.T) {
	runBoth(t, plainCfg(4), []string{`
module m
  real :: a(:), out(:), acc
contains
  elemental function square(v) result(r)
    real, intent(in) :: v
    real :: r
    r = v * v + 0.5
  end function
  function fact(n) result(r)
    real :: n, r
    if (n <= 1.0) then
      r = 1.0
    else
      r = n * fact(n - 1.0)
    end if
  end function
  subroutine s()
    integer :: i
    do i = 1, 4
      a(i) = 0.5 * i
    end do
    out = square(a) + square(2.0)
    acc = fact(6.0)
    call outfld('OUT', out)
    call outfld('ACC', acc)
  end subroutine
end module
`}, [2]string{"m", "s"})
}

func TestVMByRefArgsAndUseImports(t *testing.T) {
	runBoth(t, plainCfg(3), []string{`
module base
  real :: shared(:), gain
contains
  subroutine bump(v, amount)
    real :: v(:), amount
    v = v + amount
    amount = amount * 2.0
  end subroutine
end module
`, `
module top
  use base
  real :: local(:)
contains
  subroutine s()
    real :: amt
    gain = 1.5
    shared = 3.0
    amt = 0.25
    call bump(shared, amt)
    call bump(shared, gain)
    local = shared * amt + gain
    call outfld('L', local)
    call outfld('S', shared)
  end subroutine
end module
`}, [2]string{"top", "s"})
}

func TestVMFMABranchesMatchWalker(t *testing.T) {
	src := []string{`
module hot
  real :: x, y(:), z(:)
contains
  subroutine s()
    real :: a, b
    a = 1000003.0
    b = 0.999997
    x = a * b - 999999.999991
    y = 0.001
    z = y * 3.0 + x
    z = x - y * z
    z = z + y * y
    call outfld('Z', z)
    call outfld('X', x)
  end subroutine
end module
`}
	for _, fma := range []bool{false, true} {
		fma := fma
		mk := func() interp.Config {
			return interp.Config{Ncol: 4, SnapshotAll: true,
				FMA: func(string) bool { return fma }}
		}
		runBoth(t, mk, src, [2]string{"hot", "s"})
	}
}

func TestVMRandomAndKernelWatch(t *testing.T) {
	mk := func() interp.Config {
		return interp.Config{Ncol: 4, SnapshotAll: true, RNG: rng.NewKISS(42),
			KernelWatch: "m::s"}
	}
	runBoth(t, mk, []string{`
module m
  real :: r(:), v, e(:)
contains
  subroutine s()
    call random_number(r)
    call random_number(v)
    call random_number(e(2))
    call outfld('R', r)
    call outfld('V', v)
    call outfld('E', e)
  end subroutine
end module
`}, [2]string{"m", "s"})
}

func TestVMImplicitLocalsOnlySnapshotWhenTouched(t *testing.T) {
	m, vm := runBoth(t, plainCfg(2), []string{`
module m
  real :: g
contains
  subroutine s()
    g = 1.0
    if (g > 2.0) then
      phantom = 5.0
    end if
    seen = 2.0
    g = seen
  end subroutine
end module
`}, [2]string{"m", "s"})
	if m == nil {
		t.Fatal("construction failed")
	}
	if _, ok := vm.AllValues["m::s::phantom"]; ok {
		t.Fatal("untouched implicit local snapshotted")
	}
	if _, ok := vm.AllValues["m::s::seen"]; !ok {
		t.Fatal("touched implicit local missing")
	}
}

func TestVMErrorParity(t *testing.T) {
	cases := []string{
		// Arithmetic on derived.
		`module m
  type tt
    real :: f(:)
  end type
  type(tt) :: x
  real :: y
contains
  subroutine s()
    y = x + 1.0
  end subroutine
end module`,
		// Out-of-bounds element.
		`module m
  real :: a(:), y
contains
  subroutine s()
    y = a(99)
  end subroutine
end module`,
		// Unknown subroutine.
		`module m
  real :: y
contains
  subroutine s()
    call nothere(y)
  end subroutine
end module`,
		// Intrinsic arity.
		`module m
  real :: y
contains
  subroutine s()
    y = sqrt(1.0, 2.0)
  end subroutine
end module`,
		// outfld label.
		`module m
  real :: lbl, v(:)
contains
  subroutine s()
    call outfld(lbl, v)
  end subroutine
end module`,
	}
	for i, src := range cases {
		runBoth(t, plainCfg(2), []string{src}, [2]string{"m", "s"})
		_ = i
	}
}

// TestVMCorpusStepsBitIdentical is the heavyweight pin: the full
// generated corpus, init + nine steps, FMA on in two modules,
// KernelWatch and SnapshotAll active — byte-for-byte equal captures.
func TestVMCorpusStepsBitIdentical(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 25, Seed: 3})
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() interp.Config {
		return interp.Config{
			Ncol:        16,
			RNG:         rng.NewKISS(777),
			SnapshotAll: true,
			KernelWatch: "micro_mg::micro_mg_tend",
			FMA: func(m string) bool {
				return m == "micro_mg" || m == "chaos_turb"
			},
		}
	}
	m, merr := interp.NewMachine(mods, mk())
	prog := Compile(mods)
	vm, verr := newOneLane(prog, mk())
	if merr != nil || verr != nil {
		t.Fatalf("construction: tree=%v vm=%v", merr, verr)
	}
	calls := [][2]string{{c.DriverModule, c.InitSub}}
	for i := 0; i < 9; i++ {
		calls = append(calls, [2]string{c.DriverModule, c.StepSub})
	}
	for _, call := range calls {
		if err := m.Call(call[0], call[1]); err != nil {
			t.Fatal(err)
		}
		if err := vm.Call(call[0], call[1]); err != nil {
			t.Fatal(err)
		}
	}
	m.SnapshotModuleVars()
	vm.SnapshotModuleVars()
	got := vm.Captured()
	diffMaps(t, "Outputs", m.Outputs, got.Outputs)
	diffMaps(t, "Kernel", m.Kernel, got.Kernel)
	diffMaps(t, "AllValues", m.AllValues, got.AllValues)
	if len(got.Outputs) == 0 || len(got.AllValues) == 0 {
		t.Fatal("no captures recorded")
	}
}
