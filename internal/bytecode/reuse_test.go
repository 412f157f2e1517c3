package bytecode

import (
	"fmt"
	"testing"

	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// The reuse contract: a BatchVM that NewBatchVM resets in place starts
// in exactly a fresh VM's state, whatever its previous use left behind.
// FuzzBatchVsTree checks it on every generated program through
// checkRecycled; the tests below cover the state generated programs do
// not reach (module-level array initializers, derived module variables
// read before their first write) and the reuse of one shape's VMs across
// its Rebind copies.

// batchRun is what a batched run leaves behind, copied out of the VM
// before it is released (its maps are cleared on reuse).
type batchRun struct {
	errs []error
	res  []*interp.Results
}

func copyRun(vm *BatchVM) batchRun {
	cp := func(m map[string][]float64) map[string][]float64 {
		out := make(map[string][]float64, len(m))
		for k, v := range m {
			out[k] = append([]float64(nil), v...)
		}
		return out
	}
	run := batchRun{errs: append([]error(nil), vm.LaneErrs()...)}
	for l := 0; l < vm.Lanes(); l++ {
		r := vm.LaneResults(l)
		run.res = append(run.res, &interp.Results{
			Outputs: cp(r.Outputs), Kernel: cp(r.Kernel), AllValues: cp(r.AllValues)})
	}
	return run
}

// compareRuns requires got's lane errors (by text) and capture maps to
// be bit-identical to want's.
func compareRuns(t *testing.T, label string, want, got batchRun, src string) {
	t.Helper()
	if len(want.errs) != len(got.errs) {
		t.Fatalf("%s: %d lanes, want %d\n%s", label, len(got.errs), len(want.errs), src)
	}
	for l := range want.errs {
		w, g := want.errs[l], got.errs[l]
		if (w == nil) != (g == nil) || (w != nil && w.Error() != g.Error()) {
			t.Fatalf("%s: lane %d error %v, want %v\n%s", label, l, g, w, src)
		}
		compareLane(t, l, want.res[l], got.res[l], src)
	}
}

func kissLanes(n int, seed uint64) []rng.Source {
	out := make([]rng.Source, n)
	for l := range out {
		out[l] = rng.NewKISS(seed + uint64(l))
	}
	return out
}

// reacquire releases vm and returns it from p.NewBatchVM, reset for
// cfg and rngs (take).
func reacquire(t *testing.T, p *Program, vm *BatchVM, cfg interp.Config, rngs []rng.Source) *BatchVM {
	t.Helper()
	vm.Release()
	return take(t, p, vm, cfg, rngs)
}

// take returns vm, released earlier, from p.NewBatchVM, reset for cfg
// and rngs. Every VM NewBatchVM hands out on the way must run the
// stream cfg asks for: sliced and full VMs are pooled apart, so a
// pooled VM never changes stream. sync.Pool may miss a Put (the race
// detector drops some at random; a goroutine that changes P between
// Put and Get misses its private slot); vm then still holds its
// previous use, and the release is repeated.
func take(t *testing.T, p *Program, vm *BatchVM, cfg interp.Config, rngs []rng.Source) *BatchVM {
	t.Helper()
	sliced := !cfg.SnapshotAll && cfg.KernelWatch == ""
	for i := 0; i < 100; i++ {
		got, err := p.NewBatchVM(cfg, rngs)
		if err != nil {
			t.Fatalf("NewBatchVM: %v", err)
		}
		if got.sliced != sliced {
			t.Fatalf("NewBatchVM handed out a VM of the other stream (sliced %v, want %v)", got.sliced, sliced)
		}
		if got == vm {
			return got
		}
		vm.Release()
	}
	t.Fatal("NewBatchVM never handed the released VM back")
	return nil
}

// runCalls runs the calls on every live lane, then, unless the VM runs
// the output slice, snapshots module variables, as the fuzz harness's
// fresh runs do.
func runCalls(vm *BatchVM, calls ...[2]string) batchRun {
	for _, c := range calls {
		vm.CallAll(c[0], c[1])
	}
	if !vm.sliced {
		vm.SnapshotModuleVarsAll()
	}
	return copyRun(vm)
}

// otherFMA returns an FMA selection unlike mode's (the fuzz harness's
// 0: none, 1: every module, 2: module fz only).
func otherFMA(mode int) func(string) bool {
	switch mode {
	case 0:
		return func(string) bool { return true }
	case 1:
		return func(m string) bool { return m == "fz" }
	}
	return nil
}

// checkRecycled runs a generated program on recycled VMs of both
// streams and requires the run a fresh VM of the same configuration
// produced (want). The full VM that produced want is first dirtied by
// a use that differs in every per-run input: other lane seeds, another
// FMA set, KernelWatch and SnapshotAll on, and one lane that erred
// after init. A sliced VM, taken while the full one waits in the
// shape's pool, is dirtied alike. Then, on one shape, the sliced VM
// runs cfg with KernelWatch and SnapshotAll off — Outputs and lane
// errors must match want's, Kernel and AllValues stay empty — the full
// VM runs cfg itself, which must repeat want bit for bit, and the
// sliced VM runs again. Neither VM ever comes back as the other stream
// (take).
func checkRecycled(t *testing.T, prog *Program, vm *BatchVM, cfg interp.Config, fmaMode int, seed uint64, want batchRun, src string) {
	t.Helper()
	lanes := vm.Lanes()
	calls := [][2]string{{"fz", "fzinit"}, {"fz", "main"}}
	dirtyRun := func(vm *BatchVM) {
		vm.CallAll("fz", "fzinit")
		vm.errs[lanes-1] = errf("lane failure left by an earlier use")
		vm.CallAll("fz", "main")
	}
	dirty := interp.Config{Ncol: cfg.Ncol, SnapshotAll: true, KernelWatch: "fz::main", FMA: otherFMA(fmaMode)}
	vm = reacquire(t, prog, vm, dirty, kissLanes(lanes, seed+500))
	dirtyRun(vm)
	vm.SnapshotModuleVarsAll()
	vm.Release()

	quiet := cfg
	quiet.KernelWatch, quiet.SnapshotAll = "", false
	dirtyQuiet := quiet
	dirtyQuiet.FMA = otherFMA(fmaMode)
	svm, err := prog.NewBatchVM(dirtyQuiet, kissLanes(lanes, seed+700))
	if err != nil {
		t.Fatalf("NewBatchVM: %v", err)
	}
	if svm == vm || !svm.sliced {
		t.Fatalf("a run without snapshots took the released full VM\n%s", src)
	}
	dirtyRun(svm)
	svm.Release()

	slicedRun := func() {
		svm = take(t, prog, svm, quiet, kissLanes(lanes, seed))
		for _, c := range calls {
			svm.CallAll(c[0], c[1])
		}
		got := copyRun(svm)
		svm.Release()
		for l := range want.res {
			if n := len(got.res[l].Kernel) + len(got.res[l].AllValues); n != 0 {
				t.Fatalf("lane %d: %d snapshot entries with KernelWatch and SnapshotAll off\n%s", l, n, src)
			}
			got.res[l].Kernel, got.res[l].AllValues = want.res[l].Kernel, want.res[l].AllValues
		}
		compareRuns(t, "recycled sliced VM", want, got, src)
	}
	slicedRun()
	vm = take(t, prog, vm, cfg, kissLanes(lanes, seed))
	compareRuns(t, "recycled VM", want, runCalls(vm, calls...), src)
	vm.Release()
	slicedRun()
}

// reuseSrc accumulates into every kind of module-level state, so a VM
// whose reset leaves any of it stale diverges: st is a derived module
// variable with an array and a scalar field, w and s an array and a
// scalar with initializers, hist and acc an array and a scalar without.
const reuseSrc = `module fz
  type cell
    real :: t(:)
    real :: m
  end type
  type(cell) :: st
  real :: w(:) = 1.5
  real :: s = 0.25
  real :: noise(:), hist(:)
  real :: acc
contains
  subroutine fzinit()
    call random_number(noise)
  end subroutine
  subroutine main()
    st%t = st%t + w * 2.0 + noise
    st%m = st%m + s
    hist = hist + st%t
    acc = acc + st%m
    w = w * 0.5 + s
    s = s + 1.0
    call outfld('T', st%t)
    call outfld('W', w)
    call outfld('H', hist)
    call outfld('A', acc)
  end subroutine
end module fz
`

// TestBatchVMReuseResetsState runs reuseSrc on a fresh full VM and a
// fresh sliced VM, dirties each with a longer run of its own stream on
// other seeds with one erred lane, and then, on the one shape, requires
// the recycled sliced VM, the recycled full VM and the sliced VM again
// to repeat their fresh runs bit for bit. Every output reads module
// state with an initializer or an accumulator, so a sliced reset that
// left the held arrays stale, or skipped the arrInit replay, diverges.
func TestBatchVMReuseResetsState(t *testing.T) {
	prog := Compile(parseAll(t, reuseSrc))
	const lanes = 4
	full := interp.Config{Ncol: 5, SnapshotAll: true, KernelWatch: "fz::main"}
	sliced := interp.Config{Ncol: 5}
	calls := [][2]string{{"fz", "fzinit"}, {"fz", "main"}, {"fz", "main"}}
	fresh := func(cfg interp.Config) (*BatchVM, batchRun) {
		vm, err := prog.NewBatchVM(cfg, kissLanes(lanes, 1))
		if err != nil {
			t.Fatal(err)
		}
		return vm, runCalls(vm, calls...)
	}
	vm, wantFull := fresh(full)
	svm, wantSliced := fresh(sliced)
	if !svm.sliced || vm.sliced {
		t.Fatal("the fresh VMs do not run the streams their configs ask for")
	}
	slicedPart := batchRun{errs: wantSliced.errs}
	for l, r := range wantFull.res {
		slicedPart.res = append(slicedPart.res, &interp.Results{Outputs: r.Outputs, Kernel: wantSliced.res[l].Kernel, AllValues: wantSliced.res[l].AllValues})
	}
	compareRuns(t, "fresh sliced VM against the full stream", slicedPart, wantSliced, reuseSrc)

	fma := func(string) bool { return true }
	for _, d := range []struct {
		vm  **BatchVM
		cfg interp.Config
	}{{&vm, interp.Config{Ncol: 5, SnapshotAll: true, FMA: fma}}, {&svm, interp.Config{Ncol: 5, FMA: fma}}} {
		*d.vm = reacquire(t, prog, *d.vm, d.cfg, kissLanes(lanes, 40))
		(*d.vm).CallAll("fz", "fzinit")
		(*d.vm).errs[1] = errf("lane failure left by an earlier use")
		for i := 0; i < 3; i++ {
			(*d.vm).CallAll("fz", "main")
		}
		(*d.vm).Release()
	}

	svm = take(t, prog, svm, sliced, kissLanes(lanes, 1))
	compareRuns(t, "recycled sliced VM", wantSliced, runCalls(svm, calls...), reuseSrc)
	svm.Release()
	vm = take(t, prog, vm, full, kissLanes(lanes, 1))
	compareRuns(t, "recycled full VM", wantFull, runCalls(vm, calls...), reuseSrc)
	vm.Release()
	svm = take(t, prog, svm, sliced, kissLanes(lanes, 1))
	compareRuns(t, "sliced VM recycled after a full run", wantSliced, runCalls(svm, calls...), reuseSrc)
	svm.Release()
}

// TestBatchVMReuseAcrossRebind releases a VM of one program and takes
// it for a Rebind copy with other initializer and literal values: the
// copy shares the shape's pool, and the recycled VM must run the copy
// exactly as a fresh VM of the copy's own compilation does.
func TestBatchVMReuseAcrossRebind(t *testing.T) {
	srcB := `module fz
  type cell
    real :: t(:)
    real :: m
  end type
  type(cell) :: st
  real :: w(:) = -0.75
  real :: s = 3.5
  real :: noise(:), hist(:)
  real :: acc
contains
  subroutine fzinit()
    call random_number(noise)
  end subroutine
  subroutine main()
    st%t = st%t + w * 1.25 + noise
    st%m = st%m + s
    hist = hist + st%t
    acc = acc + st%m
    w = w * 0.125 + s
    s = s + 2.0
    call outfld('T', st%t)
    call outfld('W', w)
    call outfld('H', hist)
    call outfld('A', acc)
  end subroutine
end module fz
`
	progA := Compile(parseAll(t, reuseSrc))
	modsB := parseAll(t, srcB)
	progB := progA.Rebind(modsB)
	if progB == progA || progB.batchVMs != progA.batchVMs {
		t.Fatal("Rebind copy does not share the shape's VM pool")
	}
	const lanes = 3
	calls := [][2]string{{"fz", "fzinit"}, {"fz", "main"}, {"fz", "main"}}
	for _, cfg := range []interp.Config{{Ncol: 4, SnapshotAll: true}, {Ncol: 4}} {
		fresh, err := Compile(modsB).NewBatchVM(cfg, kissLanes(lanes, 9))
		if err != nil {
			t.Fatal(err)
		}
		want := runCalls(fresh, calls...)

		vm, err := progA.NewBatchVM(cfg, kissLanes(lanes, 70))
		if err != nil {
			t.Fatal(err)
		}
		runCalls(vm, calls...)
		vm = reacquire(t, progB, vm, cfg, kissLanes(lanes, 9))
		compareRuns(t, fmt.Sprintf("VM of A recycled for A.Rebind(B), sliced %v", vm.sliced), want, runCalls(vm, calls...), srcB)
		vm.Release()
	}
}

// TestBatchVMSizesKeepTheirOwnVMs interleaves batches of two widths and
// two column counts over one shape, as a ten-member set cut into an
// 8-lane and a 2-lane batch does: a released VM must wait for a batch
// of its own size, not be taken and dropped by a batch of another.
func TestBatchVMSizesKeepTheirOwnVMs(t *testing.T) {
	prog := Compile(parseAll(t, reuseSrc))
	cfg := interp.Config{Ncol: 5}
	vm, err := prog.NewBatchVM(cfg, kissLanes(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		vm.Release()
		for _, other := range []struct {
			cfg   interp.Config
			lanes int
		}{{cfg, 2}, {interp.Config{Ncol: 6}, 4}} {
			o, err := prog.NewBatchVM(other.cfg, kissLanes(other.lanes, 2))
			if err != nil {
				t.Fatal(err)
			}
			if o == vm {
				t.Fatalf("a %d-lane, %d-column batch took the released 4-lane, 5-column VM", other.lanes, other.cfg.Ncol)
			}
			o.Release()
		}
		got, err := prog.NewBatchVM(cfg, kissLanes(4, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got == vm {
			got.Release()
			return
		}
		vm = got
	}
	t.Fatal("batches of other sizes evicted every released 4-lane VM")
}

// TestDetachedOutputsNeverWritten pins DetachLaneResults' hand-off:
// once lane 0's maps are detached, further runs on the same VM write
// fresh Outputs slices for that lane and leave the detached ones
// exactly as they were handed over.
func TestDetachedOutputsNeverWritten(t *testing.T) {
	p := Compile(parseAll(t, `
module m
  real :: x, a(:)
contains
  subroutine step()
    x = x + 1.0
    a = a + x
    call outfld('X', x)
    call outfld('A', a)
  end subroutine
end module
`))
	vm, err := p.NewBatchVM(interp.Config{Ncol: 3}, kissLanes(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Release()
	vm.CallAll("m", "step")
	got := vm.DetachLaneResults(0)
	want := map[string][]float64{"X": {1}, "A": {1, 1, 1}}
	diffMaps(t, "detached Outputs", want, got.Outputs)
	vm.CallAll("m", "step")
	diffMaps(t, "detached Outputs after another step", want, got.Outputs)
	again := map[string][]float64{"X": {2}, "A": {3, 3, 3}}
	diffMaps(t, "lane 0 Outputs after another step", again, vm.LaneResults(0).Outputs)
	diffMaps(t, "lane 1 Outputs after another step", again, vm.LaneResults(1).Outputs)
}
