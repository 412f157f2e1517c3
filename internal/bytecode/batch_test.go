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
// reference run's.
func compareLane(t *testing.T, lane int, ref, batch *interp.Results, src string) {
	t.Helper()
	for label, pair := range map[string][2]map[string][]float64{
		"Outputs":   {ref.Outputs, batch.Outputs},
		"Kernel":    {ref.Kernel, batch.Kernel},
		"AllValues": {ref.AllValues, batch.AllValues},
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
					t.Fatalf("lane %d %s[%s][%d]: ref=%x batch=%x\n%s",
						lane, label, k, i, math.Float64bits(wv[i]), math.Float64bits(gv[i]), src)
				}
			}
		}
	}
}

// treeRuns runs fzinit and main on one tree walker per lane seed
// (seed+l) and returns each lane's first error and captures, module
// variables snapshotted when the lane succeeded.
func treeRuns(t *testing.T, mods []*fortran.Module, cfg interp.Config, lanes int, seed uint64, src string) ([]error, []*interp.Results) {
	t.Helper()
	errs := make([]error, lanes)
	res := make([]*interp.Results, lanes)
	for l := 0; l < lanes; l++ {
		c := cfg
		c.RNG = rng.NewKISS(seed + uint64(l))
		m, err := interp.NewMachine(mods, c)
		if err != nil {
			t.Fatalf("NewMachine: %v\n%s", err, src)
		}
		for _, call := range [][2]string{{"fz", "fzinit"}, {"fz", "main"}} {
			if err := m.Call(call[0], call[1]); err != nil {
				errs[l] = err
				break
			}
		}
		if errs[l] == nil {
			m.SnapshotModuleVars()
		}
		res[l] = &m.Results
	}
	return errs, res
}

// compareToTree requires every lane of vm to fail where its tree run
// failed and, where it did not, to match the tree run bit for bit.
func compareToTree(t *testing.T, vm *BatchVM, treeErrs []error, treeRes []*interp.Results, src string) {
	t.Helper()
	for l := range treeErrs {
		berr := vm.LaneErrs()[l]
		if (treeErrs[l] == nil) != (berr == nil) {
			t.Fatalf("lane %d error disagreement: tree=%v batch=%v\n%s", l, treeErrs[l], berr, src)
		}
		if berr == nil {
			compareLane(t, l, treeRes[l], vm.LaneResults(l), src)
		}
	}
}

// FuzzBatchVsTree generates FortLite programs and runs them on N tree
// walkers and one N-lane BatchVM with per-lane PRNG seeds. Distinct
// seeds drive the data-dependent branches apart, so the group-splitting
// divergence machinery is exercised continuously; every lane must stay
// bit-identical to its tree run, the contract FuzzBytecodeVsTree pins
// for one lane. Each input then runs again on a recycled VM
// (checkRecycled), which must repeat the fresh batched run bit for bit.
func FuzzBatchVsTree(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &progGen{data: data}
		fmaMode := g.pick(3)
		lanes := 2 + g.pick(7) // 2..8
		src := g.source()
		mods, err := fortran.ParseFile(src)
		if err != nil {
			t.Fatalf("generator produced unparsable source: %v\n%s", err, src)
		}
		prog := Compile(mods)
		treeErrs, treeRes := treeRuns(t, mods, fzCfg(fmaMode), lanes, 100, src)

		bvm, err := prog.NewBatchVM(fzCfg(fmaMode), kissLanes(lanes, 100))
		if err != nil {
			t.Fatalf("NewBatchVM: %v\n%s", err, src)
		}
		bvm.CallAll("fz", "fzinit")
		bvm.CallAll("fz", "main")
		bvm.SnapshotModuleVarsAll()
		compareToTree(t, bvm, treeErrs, treeRes, src)
		full := copyRun(bvm)
		// The output slice: every lane of a VM that takes no snapshots
		// must fail with the full run's error or produce its tree run's
		// Outputs.
		quiet := fzCfg(fmaMode)
		quiet.SnapshotAll, quiet.KernelWatch = false, ""
		svm, err := prog.NewBatchVM(quiet, kissLanes(lanes, 100))
		if err != nil {
			t.Fatalf("NewBatchVM: %v\n%s", err, src)
		}
		svm.CallAll("fz", "fzinit")
		svm.CallAll("fz", "main")
		for l, serr := range svm.LaneErrs() {
			if w := full.errs[l]; (w == nil) != (serr == nil) || (w != nil && w.Error() != serr.Error()) {
				t.Fatalf("lane %d: sliced run error %v, full run %v\n%s", l, serr, w, src)
			}
			if serr == nil {
				compareLane(t, l, &interp.Results{Outputs: treeRes[l].Outputs}, &interp.Results{Outputs: svm.LaneResults(l).Outputs}, src)
			}
		}
		svm.Release()
		// The same run on a recycled VM must repeat the fresh one.
		checkRecycled(t, prog, bvm, fzCfg(fmaMode), fmaMode, 100, full, src)
	})
}

// TestBatchLaneRetirement pins per-lane error retirement: a
// data-dependent out-of-bounds index must retire exactly the lanes
// whose tree runs abort, with the error text a one-lane VM of the same
// seed reports, while surviving lanes keep running bit-identically.
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
	treeErrs, treeRes := treeRuns(t, mods, cfg, lanes, 1, src)

	bvm, err := prog.NewBatchVM(cfg, kissLanes(lanes, 1))
	if err != nil {
		t.Fatalf("NewBatchVM: %v", err)
	}
	bvm.CallAll("fz", "fzinit")
	bvm.CallAll("fz", "main")
	bvm.SnapshotModuleVarsAll()
	compareToTree(t, bvm, treeErrs, treeRes, src)

	retired := 0
	for l, berr := range bvm.LaneErrs() {
		if berr == nil {
			continue
		}
		retired++
		c := cfg
		c.RNG = rng.NewKISS(uint64(1 + l))
		one, err := newOneLane(prog, c)
		if err != nil {
			t.Fatal(err)
		}
		one.Call("fz", "fzinit")
		if oerr := one.Call("fz", "main"); oerr == nil || oerr.Error() != berr.Error() {
			t.Fatalf("lane %d error text: one-lane=%v batch=%q", l, oerr, berr)
		}
	}
	if retired == 0 || retired == lanes {
		t.Fatalf("want a mix of retired and surviving lanes, got retired=%d of %d", retired, lanes)
	}
}

// TestBatchLaneArrayPerturbation pins the LaneSlice accessor the model
// layer perturbs through: writing through one lane's view must be
// invisible to every other lane and match a tree walker's ModuleArray
// write.
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

	treeRes := make([]*interp.Results, lanes)
	for l := 0; l < lanes; l++ {
		c := cfg
		c.RNG = rng.NewKISS(7)
		m, err := interp.NewMachine(mods, c)
		if err != nil {
			t.Fatalf("NewMachine: %v", err)
		}
		if err := m.Call("fz", "fzinit"); err != nil {
			t.Fatalf("fzinit: %v", err)
		}
		tt, ok := m.ModuleArray("fz", "st", "t")
		if !ok {
			t.Fatal("tree ModuleArray state temperature missing")
		}
		for i := range tt {
			tt[i] += float64(l+1) * 0.25
		}
		ww, ok := m.ModuleArray("fz", "w")
		if !ok {
			t.Fatal("tree ModuleArray w missing")
		}
		for i := range ww {
			ww[i] += float64(l+1) * 0.5
		}
		if err := m.Call("fz", "main"); err != nil {
			t.Fatalf("main: %v", err)
		}
		treeRes[l] = &m.Results
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
		ts, err := bvm.LaneArray(l, "fz", "st", "t")
		if err != nil {
			t.Fatalf("LaneArray state temperature: %v", err)
		}
		for i := 0; i < ts.Len(); i++ {
			ts.Add(i, float64(l+1)*0.25)
		}
		ws, err := bvm.LaneArray(l, "fz", "w")
		if err != nil {
			t.Fatalf("LaneArray w: %v", err)
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
		compareLane(t, l, treeRes[l], bvm.LaneResults(l), src)
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
	trace := interp.Config{Trace: func(string, string) {}}
	if _, err := prog.NewBatchVM(trace, []rng.Source{rng.NewKISS(1), rng.NewKISS(2)}); err == nil {
		t.Fatal("want error for Trace on two lanes")
	}
	if _, err := prog.NewBatchVM(trace, []rng.Source{rng.NewKISS(1)}); err != nil {
		t.Fatalf("Trace on one lane: %v", err)
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
