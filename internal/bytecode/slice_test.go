package bytecode

import (
	"errors"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// padRe matches the long auxiliary modules' padding statements, which
// no output reads.
var padRe = regexp.MustCompile(`(?m)^\s+(a\d+_\d+) = a\d+_\d+ \* 0\.999 \+ pref \* 1\.0e-9$`)

// TestSliceCutsCorpusPadding pins the output slice on the benchmark
// corpus (AuxModules 40, Seed 2): every padding assignment of the long
// auxiliary modules is gone from the sliced stream of every proc,
// while the full stream still writes each padding variable.
func TestSliceCutsCorpusPadding(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2})
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	p, comp := compile(mods)
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	// The padding variables' module array cells.
	pad := map[int32]bool{}
	for _, f := range c.Files {
		for _, m := range padRe.FindAllStringSubmatch(f.Source, -1) {
			mod := "aux_phys_" + m[1][len(m[1])-3:]
			g, ok := p.moduleVars[mod][m[1]]
			if !ok || g.kind != kArr {
				t.Fatalf("padding variable %s::%s not a module array", mod, m[1])
			}
			pad[g.idx] = true
		}
	}
	if len(pad) == 0 {
		t.Fatal("no padding statements in the corpus")
	}
	// writes counts, per stream, the instructions that write a padding
	// variable through its hoisted prologue binding.
	writes := func(code []instr) int {
		bound := map[int32]bool{}
		n := 0
		for _, in := range code {
			if in.op == opBindG {
				if pad[in.a] {
					bound[in.d] = true
				}
				continue
			}
			if in.op >= opBroadV && in.op <= opLinV && in.op != opCollapse && bound[in.d] {
				n++
			}
		}
		return n
	}
	full, sliced := 0, 0
	for _, pr := range p.procs {
		full += writes(pr.code)
		sliced += writes(pr.sliced)
	}
	if full < len(pad) {
		t.Fatalf("full stream writes padding variables %d times, want at least %d", full, len(pad))
	}
	if sliced != 0 {
		t.Fatalf("sliced stream still writes padding variables %d times", sliced)
	}
	removed, total := 0, 0
	for _, a := range comp.asgs {
		total++
		if comp.removable(a) {
			removed++
		}
	}
	t.Logf("%d padding variables; %d of %d assignments removed", len(pad), removed, total)
}

// keepReason classifies one assignment of a compiled program: "live"
// when its left-hand side is output-live, "removed" when the slice
// cuts it, else the rule that keeps it although nothing reads its
// value — "dummy" (a dummy-argument left-hand side), "part" (one
// element or a derived field), or the first opcode of its range that
// is not slice-safe: "index", "call", "error" or "rng".
func keepReason(c *compiler, a *asgRec) string {
	switch {
	case c.removable(a):
		return "removed"
	case !a.hasDef || c.live[a.def]:
		return "live"
	case a.pinned:
		return "dummy"
	case !a.whole:
		return "part"
	}
	for _, in := range a.p.code[a.start:a.end] {
		switch in.op {
		case opErr:
			return "error"
		case opIdx:
			return "index"
		case opCallSub, opCallFunS, opCallFunV, opCallFunD, opCallElem:
			return "call"
		case opRandS, opRandV:
			return "rng"
		}
	}
	return "live"
}

// skipReasons counts the call instructions of p's sliced streams whose
// callee's sliced stream only binds and returns, so that a run without
// Trace skips them, by opcode ("skip sub", "skip fun", "skip elem"),
// and, as "skip after fault", the subroutine calls among them that
// pass an element view whose bounds-checked index may fault: the
// index is the caller's own instruction and stays in its stream, so
// the lane error still appears.
func skipReasons(p *Program, counts map[string]int) {
	for _, pr := range p.procs {
		elem := map[int32]bool{} // scalar registers last written by opLoadElem
		for _, in := range pr.sliced {
			switch {
			case in.op == opLoadElem:
				elem[in.d] = true
				continue
			case in.op < opCallSub || !p.calls[in.a].proc.slicedEmpty:
				continue
			}
			switch in.op {
			case opCallSub:
				counts["skip sub"]++
				for _, mv := range p.calls[in.a].args {
					if mv.mode == amValScalS && elem[mv.a] {
						counts["skip after fault"]++
					}
				}
			case opCallElem:
				counts["skip elem"]++
			default:
				counts["skip fun"]++
			}
		}
	}
}

// TestProgGenReachesSliceRules pins the fuzz generator's reach into the
// output slice: over 1,000 pseudo-random programs, the slice must both
// remove assignments and keep, for each keep rule, an assignment whose
// value nothing reads — an element index that may fault, a user call,
// a dummy-argument left-hand side and a construction error — and must
// make binds-only procs whose calls an untraced run skips: a
// subroutine, a function, an elemental broadcast and a subroutine
// passed an element view whose index may fault.
func TestProgGenReachesSliceRules(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		data := make([]byte, 16+r.Intn(112))
		r.Read(data)
		_, mods, _ := genProgram(t, data)
		p, c := compile(mods)
		if p.Err() != nil {
			continue
		}
		for _, a := range c.asgs {
			counts[keepReason(c, a)]++
		}
		skipReasons(p, counts)
	}
	for _, k := range []string{"removed", "index", "call", "dummy", "error",
		"skip sub", "skip fun", "skip elem", "skip after fault"} {
		if counts[k] == 0 {
			t.Errorf("no %q assignment in 1,000 generated programs", k)
		}
	}
	t.Log(counts)
}

// slicedVsTree runs calls on the tree walker and on a one-lane VM that
// takes no snapshots, so runs the output slice, and requires the same
// Trace, the same failing call and bit-identical Outputs. It returns
// the program's assignment counts by keepReason and whether a call
// failed.
func slicedVsTree(t *testing.T, src string, calls ...[2]string) (map[string]int, bool) {
	t.Helper()
	mods := parseAll(t, src)
	var treeSeq, vmSeq []string
	mk := func(seq *[]string) interp.Config {
		return interp.Config{Ncol: 4, RNG: rng.NewKISS(3),
			Trace: func(mod, sub string) { *seq = append(*seq, mod+"::"+sub) }}
	}
	m, err := interp.NewMachine(mods, mk(&treeSeq))
	if err != nil {
		t.Fatal(err)
	}
	p, c := compile(mods)
	vm, err := newOneLane(p, mk(&vmSeq))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Release()
	failed := false
	for _, call := range calls {
		em, ev := m.Call(call[0], call[1]), vm.Call(call[0], call[1])
		if (em == nil) != (ev == nil) {
			t.Fatalf("call %s: tree error %v, sliced VM error %v", call[1], em, ev)
		}
		if failed = em != nil; failed {
			break
		}
	}
	if strings.Join(treeSeq, " ") != strings.Join(vmSeq, " ") {
		t.Fatalf("Trace differs:\ntree %v\nvm   %v", treeSeq, vmSeq)
	}
	diffMaps(t, "Outputs", m.Outputs, vm.Captured().Outputs)
	counts := map[string]int{}
	for _, a := range c.asgs {
		counts[keepReason(c, a)]++
	}
	return counts, failed
}

// TestSliceKeepRules runs one program per keep rule, each with an
// assignment whose value nothing reads, on the output slice: cutting
// any of them would lose the fault, the write through the dummy
// argument, the call or the error. A last program pins if conditions
// and do bounds as roots and the jump remapping around cut ranges:
// cut assignments open the proc, end both branches and the loop body,
// and close it, while the branch and the trip count hang on values
// only a condition and a bound read.
func TestSliceKeepRules(t *testing.T) {
	run := [2]string{"m", "run"}
	cases := []struct {
		name, reason, src string
		wantErr           bool
	}{
		{"out-of-bounds index", "index", `module m
  real :: a(:), s, t
contains
  subroutine run()
    a = 1.0
    s = 7.0
    t = a(s) * 2.0
    call outfld('A', a)
  end subroutine
end module
`, true},
		{"dummy argument store", "dummy", `module m
  real :: a(:)
contains
  subroutine bump(v)
    real :: v(:)
    v = v + 1.0
  end subroutine
  subroutine run()
    a = 1.0
    call bump(a)
    call outfld('A', a)
  end subroutine
end module
`, false},
		{"user call", "call", `module m
  real :: g, t
contains
  function f(x) result(r)
    real :: x, r
    g = g + x
    r = x * 2.0
  end function
  subroutine run()
    g = 0.5
    t = f(3.0)
    call outfld('G', g)
  end subroutine
end module
`, false},
		{"construction error", "error", `module m
  type cell
    real :: x
  end type
  type(cell) :: st
  real :: a(:), t
contains
  subroutine run()
    a = 2.0
    call outfld('A', a)
    t = st * 2.0
  end subroutine
end module
`, true},
		{"condition and bound roots", "removed", `module m
  real :: a(:), d(:), s, n, k
contains
  subroutine run()
    integer :: i
    d = 3.0
    s = 2.0
    n = 3.0
    a = 1.0
    if (s > 1.0) then
      a = a + 5.0
      d = d * 2.0
    else
      a = a - 5.0
      d = d * 4.0
    end if
    do i = 1, n
      a = a * 1.5
      k = k + 1.0
    end do
    call outfld('A', a)
    d = d + a
  end subroutine
end module
`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts, failed := slicedVsTree(t, tc.src, run)
			if failed != tc.wantErr {
				t.Fatalf("run failed: %v, want %v", failed, tc.wantErr)
			}
			if counts[tc.reason] == 0 {
				t.Fatalf("no %q assignment: %v", tc.reason, counts)
			}
		})
	}
}

// TestSnapshotOnSlicedVMPanics pins that a VM running the output slice
// refuses to snapshot module variables, whose values it leaves
// unspecified, rather than record them as the run's.
func TestSnapshotOnSlicedVMPanics(t *testing.T) {
	src := `module m
  real :: y = 1.0
  real :: o(:)
contains
  subroutine run()
    y = y * 6.0
    o = 1.0
    call outfld('O', o)
  end subroutine
end module`
	p := Compile(parseAll(t, src))
	vm, err := p.NewBatchVM(interp.Config{Ncol: 2}, []rng.Source{rng.NewKISS(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Release()
	if err := vm.CallAll("m", "run")[0]; err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SnapshotModuleVarsAll after a run without snapshots did not panic")
		}
	}()
	vm.SnapshotModuleVarsAll()
}

// TestSlicedStateCorpus pins the state the output slice leaves a VM on
// the benchmark corpus (AuxModules 40, Seed 2): no bind of a sliced
// stream targets a register no other instruction of that stream names;
// some procs only bind and return there, so untraced runs skip their
// calls; the held module arrays are a small superset of the
// output-live ones; and an 8-lane, 16-column sliced VM allocates
// backing for the held arrays only, where a full VM holds them all.
func TestSlicedStateCorpus(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2})
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	p, comp := compile(mods)
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	binds, empty := 0, 0
	for _, pr := range p.procs {
		usedA := map[int32]bool{}
		usedD := map[int32]bool{}
		for _, in := range pr.sliced {
			if isBind(in.op) {
				continue
			}
			regsOf(in, p.calls, func(file byte, r int32) {
				if file == 'A' {
					usedA[r] = true
				} else {
					usedD[r] = true
				}
			})
		}
		for _, in := range pr.sliced {
			if in.op == opBindDF && usedA[in.d] {
				usedD[in.a] = true
			}
		}
		for _, in := range pr.sliced {
			dead := false
			switch in.op {
			case opBindG, opBindDF:
				dead = !usedA[in.d]
			case opBindGD:
				dead = !usedD[in.d]
			default:
				continue
			}
			binds++
			if dead {
				t.Errorf("%s: sliced stream binds register %d, which nothing else names: %+v", pr.fullName, in.d, in)
			}
		}
		if pr.slicedEmpty {
			empty++
		}
	}
	if empty == 0 {
		t.Error("no proc of the corpus only binds and returns on the sliced stream")
	}
	held := map[int32]bool{}
	for _, g := range p.held.arr {
		held[g] = true
	}
	live := 0
	for x := range comp.live {
		if x.proc == -1 && x.space == vsGArr {
			live++
			if !held[x.reg] {
				t.Errorf("output-live module array %d is not held", x.reg)
			}
		}
	}
	if len(held) < live || 10*len(held) > p.nGArr {
		t.Errorf("%d of %d module arrays held, %d output-live: want a superset of the live ones under a tenth of all", len(held), p.nGArr, live)
	}
	vmBytes := func(cfg interp.Config) int {
		rngs := make([]rng.Source, 8)
		for l := range rngs {
			rngs[l] = rng.NewKISS(uint64(l + 1))
		}
		vm, err := p.NewBatchVM(cfg, rngs)
		if err != nil {
			t.Fatal(err)
		}
		defer vm.Release()
		return 8 * len(vm.backing)
	}
	sliced, full := vmBytes(interp.Config{Ncol: 16}), vmBytes(interp.Config{Ncol: 16, SnapshotAll: true})
	if want := 8 * len(p.held.arr) * 16 * 8; sliced != want || full != 8*p.nGArr*16*8 {
		t.Errorf("garr backing: sliced %d B (want %d), full %d B (want %d)", sliced, want, full, 8*p.nGArr*16*8)
	}
	t.Logf("%d binds left in the sliced streams; %d of %d procs binds-only; %d of %d module arrays held (%d output-live), %d of %d derived cells; garr backing at 8 lanes x 16 columns: sliced %d B, full %d B",
		binds, empty, len(p.procs), len(held), p.nGArr, live, len(p.held.drv), len(p.gdrvs), sliced, full)
}

// TestLaneArrayRefusesUnheld pins LaneArray on a VM that runs the
// output slice: an array the sliced streams bind is handed out, one
// they never touch is refused with ErrNotHeld rather than as a nil or
// stale view, and a full VM hands out both.
func TestLaneArrayRefusesUnheld(t *testing.T) {
	src := `module m
  type cell
    real :: t(:)
  end type
  type(cell) :: st
  real :: o(:), dead(:)
contains
  subroutine run()
    dead = o * 2.0
    o = st%t + 1.0
    call outfld('O', o)
  end subroutine
end module`
	p := Compile(parseAll(t, src))
	for _, cfg := range []interp.Config{{Ncol: 3}, {Ncol: 3, SnapshotAll: true}} {
		vm, err := p.NewBatchVM(cfg, []rng.Source{rng.NewKISS(1), rng.NewKISS(2)})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range [][]string{{"o"}, {"st", "t"}} {
			if s, err := vm.LaneArray(1, "m", path...); err != nil || s.Len() != 3 {
				t.Errorf("SnapshotAll %v: LaneArray %v: len %d, %v", cfg.SnapshotAll, path, s.Len(), err)
			}
		}
		_, err = vm.LaneArray(1, "m", "dead")
		if got := errors.Is(err, ErrNotHeld); got != !cfg.SnapshotAll {
			t.Errorf("SnapshotAll %v: LaneArray dead: %v", cfg.SnapshotAll, err)
		}
		if _, err := vm.LaneArray(0, "m", "nosuch"); err == nil || errors.Is(err, ErrNotHeld) {
			t.Errorf("LaneArray of an undeclared array: %v", err)
		}
		vm.Release()
	}
}

// TestSkippedCallsMatchTree runs programs whose calls of binds-only
// procs an untraced run of the output slice skips, on the tree walker
// and on such a VM, and requires the same failing call, the full
// stream's error text and bit-identical Outputs: a skipped function
// must still yield its 0 result, a skipped elemental broadcast its 0
// columns, an element-view argument its fault, and a call at the depth
// limit its error.
func TestSkippedCallsMatchTree(t *testing.T) {
	const procs = `
  subroutine nop(x)
    real :: x
    real :: u
    u = x * 2.0
  end subroutine
  function zfn(x) result(r)
    real :: x, r
    real :: u
    u = x * 3.0
  end function
  elemental function zefn(v) result(r)
    real, intent(in) :: v
    real :: r
    real :: u
    u = v * 2.0
  end function
  subroutine down(n)
    real :: n
    if (n > 0.5) then
      call down(n - 1.0)
    else
      call nop(n)
    end if
  end subroutine`
	cases := []struct {
		name, body string
		wantErr    bool
	}{
		{"function result", `
    real :: q
    q = 5.0
    q = zfn(3.0)
    o = 1.0 + q
    call outfld('O', o)`, false},
		{"elemental result", `
    o = 7.0
    o = shift(o, 1)
    o = zefn(o) + o
    call outfld('O', o)`, false},
		{"element-view fault", `
    o = 1.0
    call outfld('O', o)
    call nop(o(7))`, true},
		{"below the depth limit", `
    o = 1.0
    call outfld('O', o)
    d = 197.0
    call down(d)`, false},
		{"at the depth limit", `
    o = 1.0
    call outfld('O', o)
    d = 198.0
    call down(d)`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "module m\n  real :: o(:), d\ncontains\n" + procs +
				"\n  subroutine run()" + tc.body + "\n  end subroutine\nend module\n"
			mods := parseAll(t, src)
			cfg := interp.Config{Ncol: 4, RNG: rng.NewKISS(3)}
			m, err := interp.NewMachine(mods, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := Compile(mods)
			for _, name := range []string{"m::nop", "m::zfn", "m::zefn"} {
				for _, pr := range p.procs {
					if pr.fullName == name && !pr.slicedEmpty {
						t.Fatalf("%s is not binds-only on the sliced stream", name)
					}
				}
			}
			vm, err := newOneLane(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer vm.Release()
			full, err := newOneLane(p, interp.Config{Ncol: 4, RNG: rng.NewKISS(3), SnapshotAll: true})
			if err != nil {
				t.Fatal(err)
			}
			defer full.Release()
			em, ev, ef := m.Call("m", "run"), vm.Call("m", "run"), full.Call("m", "run")
			if (em != nil) != tc.wantErr || (ev == nil) != (em == nil) || (ev != nil && ev.Error() != ef.Error()) {
				t.Fatalf("tree error %v, sliced VM error %v, full VM error %v; want an error: %v", em, ev, ef, tc.wantErr)
			}
			diffMaps(t, "Outputs", m.Outputs, vm.Captured().Outputs)
		})
	}
}
