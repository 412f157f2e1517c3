package bytecode

import (
	"fmt"
	"math"
	"testing"

	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// compareLane asserts one lane's capture maps are bit-identical to a
// solo run's.
func compareLane(t *testing.T, lane int, solo, batch *interp.Results, src string) {
	t.Helper()
	for label, pair := range map[string][2]map[string][]float64{
		"Outputs":   {solo.Outputs, batch.Outputs},
		"Kernel":    {solo.Kernel, batch.Kernel},
		"AllValues": {solo.AllValues, batch.AllValues},
	} {
		want, got := pair[0], pair[1]
		if len(want) != len(got) {
			t.Fatalf("lane %d %s: key counts differ (%d vs %d)\n%s", lane, label, len(want), len(got), src)
		}
		for k, wv := range want {
			gv, ok := got[k]
			if !ok {
				t.Fatalf("lane %d %s: key %q missing from batch\n%s", lane, label, k, src)
			}
			if len(wv) != len(gv) {
				t.Fatalf("lane %d %s[%s]: lengths differ\n%s", lane, label, k, src)
			}
			for i := range wv {
				if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
					t.Fatalf("lane %d %s[%s][%d]: solo=%x batch=%x\n%s",
						lane, label, k, i, math.Float64bits(wv[i]), math.Float64bits(gv[i]), src)
				}
			}
		}
	}
}

// FuzzBatchVsSolo generates FortLite programs and runs them on N solo
// VMs and one N-lane BatchVM with per-lane PRNG seeds. Distinct seeds
// drive the data-dependent branches apart, so the group-splitting
// divergence machinery is exercised continuously; every lane must stay
// bit-identical to its solo run — the same contract FuzzBytecodeVsTree
// pins between the solo VM and the tree walker. Each input then runs
// again on a recycled VM (checkRecycled), which must repeat the fresh
// batched run bit for bit.
func FuzzBatchVsSolo(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("fma patterns and shifts everywhere, please"))
	f.Add([]byte{0xff, 0x00, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01,
		0xaa, 0x55, 0xcc, 0x33, 0x99, 0x66, 0xf0, 0x0f, 0x11, 0x22})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &progGen{data: data}
		fmaMode := g.pick(3)
		lanes := 2 + g.pick(7) // 2..8
		src := g.source()
		mods, err := fortran.ParseFile(src)
		if err != nil {
			t.Fatalf("generator produced unparsable source: %v\n%s", err, src)
		}
		mk := func() interp.Config {
			var fma func(string) bool
			switch fmaMode {
			case 1:
				fma = func(string) bool { return true }
			case 2:
				fma = func(m string) bool { return m == "fz" }
			}
			return interp.Config{Ncol: 6, SnapshotAll: true, KernelWatch: "fz::main", FMA: fma}
		}
		prog := Compile(mods)

		// Solo reference runs, one VM per lane seed.
		soloErrs := make([]error, lanes)
		soloRes := make([]*interp.Results, lanes)
		for l := 0; l < lanes; l++ {
			cfg := mk()
			cfg.RNG = rng.NewKISS(uint64(100 + l))
			vm, err := prog.NewVM(cfg)
			if err != nil {
				t.Fatalf("solo NewVM: %v\n%s", err, src)
			}
			for _, call := range [][2]string{{"fz", "fzinit"}, {"fz", "main"}} {
				if err := vm.Call(call[0], call[1]); err != nil {
					soloErrs[l] = err
					break
				}
			}
			if soloErrs[l] == nil {
				vm.SnapshotModuleVars()
			}
			soloRes[l] = vm.Captured()
		}

		// One batched run over the same per-lane seeds.
		rngs := make([]rng.Source, lanes)
		for l := range rngs {
			rngs[l] = rng.NewKISS(uint64(100 + l))
		}
		bvm, err := prog.NewBatchVM(mk(), rngs)
		if err != nil {
			t.Fatalf("NewBatchVM: %v\n%s", err, src)
		}
		bvm.CallAll("fz", "fzinit")
		bvm.CallAll("fz", "main")
		bvm.SnapshotModuleVarsAll()

		for l := 0; l < lanes; l++ {
			berr := bvm.LaneErrs()[l]
			if (soloErrs[l] == nil) != (berr == nil) {
				t.Fatalf("lane %d error disagreement: solo=%v batch=%v\n%s", l, soloErrs[l], berr, src)
			}
			if soloErrs[l] != nil {
				if soloErrs[l].Error() != berr.Error() {
					t.Fatalf("lane %d error text: solo=%q batch=%q\n%s", l, soloErrs[l], berr, src)
				}
				continue
			}
			compareLane(t, l, soloRes[l], bvm.LaneResults(l), src)
		}
		// The same run on a recycled VM must repeat the fresh one.
		checkRecycled(t, prog, bvm, mk(), fmaMode, 100, copyRun(bvm), src)
	})
}

// TestBatchLaneRetirement pins per-lane error retirement: a
// data-dependent out-of-bounds index must retire exactly the lanes a
// solo run would abort, with identical error text, while surviving
// lanes keep running bit-identically.
func TestBatchLaneRetirement(t *testing.T) {
	src := `module fz
  real :: a0(:), a1(:)
  real :: s0
contains
  subroutine fzinit()
    integer :: i
    do i = 1, size(a0)
      a1(i) = 0.5 * i
    end do
  end subroutine
  subroutine main()
    real :: x
    call random_number(a0)
    x = floor(a0(1) * 12.0) + 1.0
    s0 = a1(x)
    a1 = a1 + s0
    call outfld('F0', a1)
  end subroutine
end module fz
`
	mods, err := fortran.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog := Compile(mods)
	const lanes = 8
	cfg := interp.Config{Ncol: 6, SnapshotAll: true}

	soloErrs := make([]error, lanes)
	soloRes := make([]*interp.Results, lanes)
	for l := 0; l < lanes; l++ {
		c := cfg
		c.RNG = rng.NewKISS(uint64(1 + l))
		vm, err := prog.NewVM(c)
		if err != nil {
			t.Fatalf("NewVM: %v", err)
		}
		for _, call := range [][2]string{{"fz", "fzinit"}, {"fz", "main"}} {
			if err := vm.Call(call[0], call[1]); err != nil {
				soloErrs[l] = err
				break
			}
		}
		if soloErrs[l] == nil {
			vm.SnapshotModuleVars()
		}
		soloRes[l] = vm.Captured()
	}

	rngs := make([]rng.Source, lanes)
	for l := range rngs {
		rngs[l] = rng.NewKISS(uint64(1 + l))
	}
	bvm, err := prog.NewBatchVM(cfg, rngs)
	if err != nil {
		t.Fatalf("NewBatchVM: %v", err)
	}
	bvm.CallAll("fz", "fzinit")
	bvm.CallAll("fz", "main")
	bvm.SnapshotModuleVarsAll()

	retired, survived := 0, 0
	for l := 0; l < lanes; l++ {
		berr := bvm.LaneErrs()[l]
		if (soloErrs[l] == nil) != (berr == nil) {
			t.Fatalf("lane %d error disagreement: solo=%v batch=%v", l, soloErrs[l], berr)
		}
		if soloErrs[l] != nil {
			retired++
			if soloErrs[l].Error() != berr.Error() {
				t.Fatalf("lane %d error text: solo=%q batch=%q", l, soloErrs[l], berr)
			}
			continue
		}
		survived++
		compareLane(t, l, soloRes[l], bvm.LaneResults(l), src)
	}
	if retired == 0 || survived == 0 {
		t.Fatalf("want a mix of retired and surviving lanes, got retired=%d survived=%d", retired, survived)
	}
}

// TestBatchLaneArrayPerturbation pins the LaneSlice accessor the model
// layer perturbs through: writing through one lane's strided view must
// be invisible to every other lane and match a solo ModuleArray write.
func TestBatchLaneArrayPerturbation(t *testing.T) {
	src := `module fz
  type cell
    real :: t(:)
  end type
  type(cell) :: st
  real :: w(:)
contains
  subroutine fzinit()
    integer :: i
    do i = 1, size(w)
      w(i) = 1.0 * i
      st%t(i) = 270.0 + i
    end do
  end subroutine
  subroutine main()
    call outfld('T', st%t)
    call outfld('W', w)
  end subroutine
end module fz
`
	mods, err := fortran.ParseFile(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog := Compile(mods)
	const lanes = 3
	cfg := interp.Config{Ncol: 4}

	soloRes := make([]*interp.Results, lanes)
	for l := 0; l < lanes; l++ {
		c := cfg
		c.RNG = rng.NewKISS(7)
		vm, err := prog.NewVM(c)
		if err != nil {
			t.Fatalf("NewVM: %v", err)
		}
		if err := vm.Call("fz", "fzinit"); err != nil {
			t.Fatalf("fzinit: %v", err)
		}
		tt, ok := vm.ModuleArray("fz", "st", "t")
		if !ok {
			t.Fatal("solo ModuleArray state temperature missing")
		}
		for i := range tt {
			tt[i] += float64(l+1) * 0.25
		}
		ww, ok := vm.ModuleArray("fz", "w")
		if !ok {
			t.Fatal("solo ModuleArray w missing")
		}
		for i := range ww {
			ww[i] += float64(l+1) * 0.5
		}
		if err := vm.Call("fz", "main"); err != nil {
			t.Fatalf("main: %v", err)
		}
		soloRes[l] = vm.Captured()
	}

	rngs := make([]rng.Source, lanes)
	for l := range rngs {
		rngs[l] = rng.NewKISS(7)
	}
	bvm, err := prog.NewBatchVM(cfg, rngs)
	if err != nil {
		t.Fatalf("NewBatchVM: %v", err)
	}
	bvm.CallAll("fz", "fzinit")
	for l := 0; l < lanes; l++ {
		ts, ok := bvm.LaneArray(l, "fz", "st", "t")
		if !ok {
			t.Fatal("LaneArray state temperature missing")
		}
		for i := 0; i < ts.Len(); i++ {
			ts.Add(i, float64(l+1)*0.25)
		}
		ws, ok := bvm.LaneArray(l, "fz", "w")
		if !ok {
			t.Fatal("LaneArray w missing")
		}
		if ws.Len() != 4 {
			t.Fatalf("LaneArray w Len = %d, want 4", ws.Len())
		}
		for i := 0; i < ws.Len(); i++ {
			ws.Add(i, float64(l+1)*0.5)
		}
	}
	bvm.CallAll("fz", "main")
	for l := 0; l < lanes; l++ {
		if err := bvm.LaneErrs()[l]; err != nil {
			t.Fatalf("lane %d err: %v", l, err)
		}
		compareLane(t, l, soloRes[l], bvm.LaneResults(l), src)
	}
}

// TestBatchVMConfig pins constructor failure modes.
func TestBatchVMConfig(t *testing.T) {
	mods, err := fortran.ParseFile("module m\n  real :: x\ncontains\n  subroutine init()\n    x = 1.0\n  end subroutine\nend module m\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog := Compile(mods)
	if _, err := prog.NewBatchVM(interp.Config{}, nil); err == nil {
		t.Fatal("want error for zero lanes")
	}
	if _, err := prog.NewBatchVM(interp.Config{Trace: func(string, string) {}},
		[]rng.Source{rng.NewKISS(1)}); err == nil {
		t.Fatal("want error for Trace")
	}
	if _, err := prog.NewBatchVM(interp.Config{}, []rng.Source{nil}); err == nil {
		t.Fatal("want error for nil lane RNG")
	}
	bvm, err := prog.NewBatchVM(interp.Config{}, []rng.Source{rng.NewKISS(1), rng.NewKISS(2)})
	if err != nil {
		t.Fatalf("NewBatchVM: %v", err)
	}
	if bvm.Lanes() != 2 || bvm.Ncol() != 16 {
		t.Fatalf("Lanes=%d Ncol=%d, want 2, 16", bvm.Lanes(), bvm.Ncol())
	}
	errs := bvm.CallAll("m", "missing")
	for l, e := range errs {
		if e == nil {
			t.Fatalf("lane %d: want error for missing subroutine", l)
		}
	}
	_ = fmt.Sprintf("%v", errs[0])
}
