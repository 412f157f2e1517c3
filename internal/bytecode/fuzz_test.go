package bytecode

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// progGen derives a syntactically valid FortLite program from a fuzz
// byte stream: module variables (scalars, fields, a derived type),
// parameters, an elemental and a plain function, helper subroutines
// and a zero-argument entry — with statements and expressions chosen
// byte by byte. Loops are bounded and calls only target previously
// defined subprograms, so every generated program terminates.
type progGen struct {
	data []byte
	pos  int
	sb   strings.Builder
	tmp  int
	// picks records, per byte drawn from data, the n of the pick(n)
	// that drew it, or 0 for a byte used as a value (replayBytes).
	picks []int
}

func (g *progGen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	g.picks = append(g.picks, 0)
	return b
}

func (g *progGen) pick(n int) int {
	pos := g.pos
	v := int(g.byte()) % n
	if pos < len(g.data) {
		g.picks[len(g.picks)-1] = n
	}
	return v
}

// replayBytes returns a byte stream that makes a generator draw the
// choices g drew from its data: each pick's chosen index as its byte,
// each value byte as it was. A generator that only appends cases to
// its switches generates g's program from it, the way "-prev" fuzz
// seeds keep the programs of an earlier generator.
func (g *progGen) replayBytes() []byte {
	out := make([]byte, len(g.picks))
	for i, n := range g.picks {
		out[i] = g.data[i]
		if n > 0 {
			out[i] %= byte(n)
		}
	}
	return out
}

func (g *progGen) lit() string {
	v := float64(int(g.byte())-128) / 16
	return fmt.Sprintf("%.4f", v)
}

// plit is a non-negative literal: a bare NumLit, where a negative one
// parses as a negation.
func (g *progGen) plit() string {
	return fmt.Sprintf("%.4f", float64(g.byte())/16)
}

// shiftCount spans rotations by more than ncol columns either way.
func (g *progGen) shiftCount() int { return g.pick(27) - 13 }

// Scalar-valued variables visible in every subprogram.
var fzScal = []string{"s0", "s1", "s2", "st%mass"}

// Array-valued variables visible in every subprogram.
var fzArr = []string{"a0", "a1", "a2", "st%t", "st%q"}

// expr emits an expression of bounded depth; array controls shape.
func (g *progGen) expr(depth int, array bool) string {
	if depth <= 0 {
		return g.atom(array)
	}
	switch g.pick(11) {
	case 0:
		return g.atom(array)
	case 1:
		return fmt.Sprintf("(-%s)", g.expr(depth-1, array))
	case 2: // FMA candidate a*b + c
		return fmt.Sprintf("%s * %s + %s", g.atom(array), g.atom(false), g.expr(depth-1, array))
	case 3: // c - a*b
		return fmt.Sprintf("%s - %s * %s", g.expr(depth-1, array), g.atom(array), g.atom(false))
	case 4:
		op := []string{"+", "-", "*", "/"}[g.pick(4)]
		return fmt.Sprintf("%s %s %s", g.expr(depth-1, array), op, g.atom(array))
	case 5:
		fn := []string{"abs", "sqrt", "exp", "log", "floor"}[g.pick(5)]
		return fmt.Sprintf("%s(%s)", fn, g.expr(depth-1, array))
	case 6:
		fn := []string{"min", "max", "mod", "sign"}[g.pick(4)]
		return fmt.Sprintf("%s(%s, %s)", fn, g.expr(depth-1, array), g.atom(array))
	case 7: // X*lit ± Y*lit
		sign := []string{"+", "-"}[g.pick(2)]
		if array {
			return fmt.Sprintf("%s * %s %s %s * %s", g.linOperand(), g.plit(), sign, g.linOperand(), g.plit())
		}
		return fmt.Sprintf("%s * %s %s %s * %s", g.atom(false), g.plit(), sign, g.atom(false), g.plit())
	case 8: // a literal operand on either side
		op := []string{"+", "-", "*", "/"}[g.pick(4)]
		if g.pick(2) == 0 {
			return fmt.Sprintf("%s %s (%s)", g.plit(), op, g.expr(depth-1, array))
		}
		return fmt.Sprintf("(%s) %s %s", g.expr(depth-1, array), op, g.plit())
	case 10: // a power with a literal base, a literal exponent or neither
		switch g.pick(3) {
		case 0:
			return fmt.Sprintf("%s ** (%s)", g.plit(), g.expr(depth-1, array))
		case 1:
			return fmt.Sprintf("(%s) ** %s", g.expr(depth-1, array), g.plit())
		default:
			return fmt.Sprintf("(%s) ** %s", g.expr(depth-1, array), g.atom(array))
		}
	default:
		if array {
			switch g.pick(3) {
			case 0:
				return fmt.Sprintf("shift(%s, %d)", g.atom(true), g.shiftCount())
			case 1:
				return fmt.Sprintf("efn(%s)", g.atom(true)) // elemental broadcast
			default:
				return g.atom(true)
			}
		}
		switch g.pick(4) {
		case 0:
			return fmt.Sprintf("sum(%s)", g.atom(true))
		case 1:
			return fmt.Sprintf("size(%s)", g.atom(true))
		case 2:
			return fmt.Sprintf("ffn(%s, %s)", g.atom(false), g.atom(false))
		default:
			return g.atom(false)
		}
	}
}

// linOperand is an array operand of X*lit ± Y*lit: a variable or
// derived field, a rotation, an elemental broadcast, or a call of wfn,
// which writes a0 and so must keep its product from fusing.
func (g *progGen) linOperand() string {
	switch g.pick(6) {
	case 0:
		return fmt.Sprintf("shift(%s, %d)", g.atom(true), g.shiftCount())
	case 1:
		return fmt.Sprintf("wfn(%s)", g.atom(true))
	case 2:
		return fmt.Sprintf("efn(%s)", g.atom(true))
	default:
		return g.atom(true)
	}
}

func (g *progGen) atom(array bool) string {
	if array {
		return fzArr[g.pick(len(fzArr))]
	}
	switch g.pick(4) {
	case 0:
		return g.lit()
	case 1: // element read with a small in-bounds index
		return fmt.Sprintf("%s(%d)", fzArr[g.pick(3)], 1+g.pick(4))
	default:
		return fzScal[g.pick(len(fzScal))]
	}
}

func (g *progGen) stmt(depth int) {
	switch g.pick(10) {
	case 0, 1: // array assignment
		fmt.Fprintf(&g.sb, "    %s = %s\n", fzArr[g.pick(len(fzArr))], g.expr(2, true))
	case 2: // scalar assignment
		fmt.Fprintf(&g.sb, "    %s = %s\n", fzScal[g.pick(3)], g.expr(2, false))
	case 3: // element assignment
		fmt.Fprintf(&g.sb, "    %s(%d) = %s\n", fzArr[g.pick(3)], 1+g.pick(4), g.expr(2, false))
	case 4:
		if depth > 0 {
			fmt.Fprintf(&g.sb, "    if (%s > %s) then\n", g.expr(1, false), g.lit())
			g.stmt(depth - 1)
			g.sb.WriteString("    else\n")
			g.stmt(depth - 1)
			g.sb.WriteString("    end if\n")
			return
		}
		fmt.Fprintf(&g.sb, "    %s = %s\n", fzScal[g.pick(3)], g.expr(1, false))
	case 5:
		if depth > 0 {
			g.tmp++
			v := fmt.Sprintf("i%d", g.tmp)
			fmt.Fprintf(&g.sb, "    do %s = 1, %d\n", v, 1+g.pick(3))
			g.stmt(depth - 1)
			fmt.Fprintf(&g.sb, "    end do\n")
			return
		}
		fmt.Fprintf(&g.sb, "    %s = %s\n", fzArr[g.pick(3)], g.expr(1, true))
	case 6:
		fmt.Fprintf(&g.sb, "    call random_number(%s)\n", fzArr[g.pick(3)])
	case 7:
		fmt.Fprintf(&g.sb, "    call helper(%s, %s)\n", fzArr[g.pick(len(fzArr))], fzScal[g.pick(3)])
	case 8:
		fmt.Fprintf(&g.sb, "    call outfld('F%d', %s)\n", g.pick(4), fzArr[g.pick(len(fzArr))])
	default: // a conditional assignment that may fail: arithmetic on a
		// derived value, or an element index up to ncol+2
		fmt.Fprintf(&g.sb, "    if (%s > %s) then\n", g.expr(1, false), g.lit())
		if g.pick(2) == 0 {
			fmt.Fprintf(&g.sb, "      %s = st * %s\n", fzScal[g.pick(3)], g.plit())
		} else {
			fmt.Fprintf(&g.sb, "      %s = %s(%d) * %s\n", fzScal[g.pick(3)], fzArr[g.pick(3)], 1+g.pick(8), g.plit())
		}
		g.sb.WriteString("    end if\n")
	}
}

func (g *progGen) source() string {
	g.sb.WriteString(`module fz
  type cell
    real :: t(:)
    real :: q(:)
    real :: mass
  end type
  type(cell) :: st
  real :: a0(:), a1(:), a2(:)
  real :: s0, s1, s2
  real, parameter :: pconst = `)
	g.sb.WriteString(g.lit())
	g.sb.WriteString(`
contains
  elemental function efn(v) result(r)
    real, intent(in) :: v
    real :: r
    r = v * `)
	g.sb.WriteString(g.lit())
	g.sb.WriteString(` + `)
	g.sb.WriteString(g.lit())
	g.sb.WriteString(`
  end function
  function ffn(x, y) result(r)
    real :: x, y, r
    r = x * y - pconst
  end function
  function wfn(v) result(r)
    real :: v(:)
    real :: r(:)
    a0 = a0 * 0.5 + 0.25
    r = v * 2.0
  end function
  subroutine helper(v, amt)
    real :: v(:), amt
    v = v * 0.5 + amt
    amt = amt + 1.0
  end subroutine
  subroutine nop(v, amt)
    real :: v(:), amt
    real :: w(:)
    w = v * amt + a1
  end subroutine
  function zfn(x) result(r)
    real :: x, r
    real :: u
    u = x * 3.0 + s1
  end function
  elemental function zefn(v) result(r)
    real, intent(in) :: v
    real :: r
    real :: u
    u = v * 2.0
  end function
  subroutine fzinit()
    integer :: i
    do i = 1, size(a0)
      a0(i) = 0.1 * i
      a1(i) = 1.0 - 0.05 * i
      a2(i) = pconst * i
      st%t(i) = 270.0 + i
      st%q(i) = 0.01 * i
    end do
    st%mass = 5.5
    s0 = 1.5
    s1 = -0.25
    s2 = pconst
  end subroutine
  subroutine main()
    call nop(a1, s1)
    s2 = s2 + zfn(s0)
    a2 = a2 + zefn(a0)
`)
	n := 3 + g.pick(8)
	for i := 0; i < n; i++ {
		g.stmt(2)
	}
	// A binds-only call after an element-view argument whose index may
	// fault (ncol is 6); drawn last, so earlier choices keep their bytes.
	fmt.Fprintf(&g.sb, "    if (%s > %s) then\n", g.expr(1, false), g.lit())
	fmt.Fprintf(&g.sb, "      call nop(a2(%d), s0)\n", 1+g.pick(7))
	g.sb.WriteString("    end if\n  end subroutine\nend module fz\n")
	return g.sb.String()
}

// fuzzSeeds are FuzzBytecodeVsTree's in-code seed inputs.
var fuzzSeeds = [][]byte{
	{},
	{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	[]byte("fma patterns and shifts everywhere, please"),
	{0xff, 0x00, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01,
		0xaa, 0x55, 0xcc, 0x33, 0x99, 0x66, 0xf0, 0x0f, 0x11, 0x22},
}

// genProgram derives a program and its FMA mode from fuzz bytes.
func genProgram(t *testing.T, data []byte) (src string, mods []*fortran.Module, fmaMode int) {
	t.Helper()
	g := &progGen{data: data}
	fmaMode = g.pick(3)
	src = g.source()
	mods, err := fortran.ParseFile(src)
	if err != nil {
		t.Fatalf("generator produced unparsable source: %v\n%s", err, src)
	}
	return src, mods, fmaMode
}

// fzCfg is the fuzz harnesses' run configuration for one FMA mode (0:
// none, 1: every module, 2: module fz only), before the PRNG is set.
func fzCfg(fmaMode int) interp.Config {
	var fma func(string) bool
	switch fmaMode {
	case 1:
		fma = func(string) bool { return true }
	case 2:
		fma = func(m string) bool { return m == "fz" }
	}
	return interp.Config{Ncol: 6, SnapshotAll: true, KernelWatch: "fz::main", FMA: fma}
}

// diffVsTree runs fzinit and main on the tree walker over mods and on
// a one-lane VM of prog, and fails unless both agree on every
// construction and call error, report the same Trace sequence of proc
// entries and produce bit-identical Outputs, Kernel and AllValues; the
// VM, recycled, must then repeat its run (checkRecycled).
func diffVsTree(t *testing.T, src string, mods []*fortran.Module, prog *Program, fmaMode int) {
	t.Helper()
	var treeSeq, vmSeq []string
	mk := func(seq *[]string) interp.Config {
		cfg := fzCfg(fmaMode)
		cfg.RNG = rng.NewKISS(99)
		cfg.Trace = func(mod, sub string) { *seq = append(*seq, mod+"::"+sub) }
		return cfg
	}
	m, merr := interp.NewMachine(mods, mk(&treeSeq))
	vm, verr := newOneLane(prog, mk(&vmSeq))
	if (merr == nil) != (verr == nil) {
		t.Fatalf("construction disagreement: tree=%v vm=%v\n%s", merr, verr, src)
	}
	if merr != nil {
		return
	}
	var failed, vmErr error
	for _, call := range [][2]string{{"fz", "fzinit"}, {"fz", "main"}} {
		em := m.Call(call[0], call[1])
		ev := vm.Call(call[0], call[1])
		if (em == nil) != (ev == nil) {
			t.Fatalf("call %s disagreement: tree=%v vm=%v\n%s", call[1], em, ev, src)
		}
		if failed, vmErr = em, ev; failed != nil {
			break
		}
	}
	if len(treeSeq) == 0 || strings.Join(treeSeq, " ") != strings.Join(vmSeq, " ") {
		t.Fatalf("Trace sequences differ:\ntree %v\nvm   %v\n%s", treeSeq, vmSeq, src)
	}
	// The output slice: a VM that takes no snapshots must fail with the
	// same error and, when the run completes, produce the tree walker's
	// Outputs; traced, it must trace the same entries, and untraced it
	// also skips the calls of binds-only procs.
	for _, traced := range []bool{true, false} {
		var slicedSeq []string
		sliced := mk(&slicedSeq)
		sliced.SnapshotAll, sliced.KernelWatch = false, ""
		if !traced {
			sliced.Trace = nil
		}
		svm, err := newOneLane(prog, sliced)
		if err != nil {
			t.Fatalf("NewBatchVM: %v\n%s", err, src)
		}
		var serr error
		for _, call := range [][2]string{{"fz", "fzinit"}, {"fz", "main"}} {
			if serr = svm.Call(call[0], call[1]); serr != nil {
				break
			}
		}
		if (serr == nil) != (vmErr == nil) || (serr != nil && serr.Error() != vmErr.Error()) {
			t.Fatalf("sliced run (traced %v) error %v, full run %v\n%s", traced, serr, vmErr, src)
		}
		if traced && strings.Join(treeSeq, " ") != strings.Join(slicedSeq, " ") {
			t.Fatalf("sliced Trace differs:\ntree   %v\nsliced %v\n%s", treeSeq, slicedSeq, src)
		}
		if failed == nil {
			compareLane(t, 0, &interp.Results{Outputs: m.Outputs}, &interp.Results{Outputs: svm.Captured().Outputs}, src)
		}
		svm.Release()
	}
	if failed != nil {
		return
	}
	m.SnapshotModuleVars()
	vm.SnapshotModuleVars()
	compareLane(t, 0, &m.Results, vm.Captured(), src)
	// A one-lane VM is recycled like any other: the same run on it must
	// repeat the fresh one.
	checkRecycled(t, prog, vm.BatchVM, fzCfg(fmaMode), fmaMode, 99, copyRun(vm.BatchVM), src)
}

// FuzzBytecodeVsTree generates FortLite programs and asserts a one-lane
// BatchVM and the tree walker trace the same proc entries and produce
// bit-identical Outputs, Kernel and AllValues maps — the differential
// pin behind making the VM the only production engine.
func FuzzBytecodeVsTree(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, mods, fmaMode := genProgram(t, data)
		diffVsTree(t, src, mods, Compile(mods), fmaMode)
	})
}

// TestRebindLiteralsVsTree is the property behind literal-free shapes,
// over FuzzBytecodeVsTree's seed programs (in-code seeds and the
// checked-in corpus): with every statement literal perturbed, the
// perturbed tree keeps the shape, and the original program rebound to
// it runs exactly as the tree walker runs the perturbed tree.
func TestRebindLiteralsVsTree(t *testing.T) {
	seeds := append([][]byte(nil), fuzzSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzBytecodeVsTree", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok2 := strings.CutPrefix(arg, "[]byte(")
		if !ok || !ok2 {
			t.Fatalf("%s: not a []byte fuzz input", file)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		seeds = append(seeds, []byte(data))
	}
	perturbed := 0
	for i, data := range seeds {
		src, mods, fmaMode := genProgram(t, data)
		_, alt, _ := genProgram(t, data)
		n := 0
		for _, m := range alt {
			for _, lit := range m.Lits {
				lit.Value += 1.0 / 64
				n++
			}
		}
		if fortran.ShapeKey(alt) != fortran.ShapeKey(mods) {
			t.Fatalf("seed %d: perturbing literal values changed the shape key", i)
		}
		p := Compile(mods)
		q := p.Rebind(alt)
		if n > 0 && p.Err() == nil && q == p {
			t.Fatalf("seed %d: Rebind returned the original program for perturbed literals", i)
		}
		diffVsTree(t, src, alt, q, fmaMode)
		perturbed += n
	}
	if perturbed == 0 {
		t.Fatal("no statement literals perturbed; the property is vacuous")
	}
}

// TestProgGenReachesVectorKernels pins the generator's reach into the
// literal-operand forms of the elementwise arithmetic and of scalar and
// elementwise `**`, both signs of the one-pass X*lit ± Y*lit and
// rotations by at least ncol columns either way: each must show up in
// 1,000 pseudo-random programs.
func TestProgGenReachesVectorKernels(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	longShift := regexp.MustCompile(`shift\([^,]+, (-?\d+)\)`)
	for i := 0; i < 1000; i++ {
		data := make([]byte, 16+r.Intn(112))
		r.Read(data)
		src, mods, _ := genProgram(t, data)
		for _, m := range longShift.FindAllStringSubmatch(src, -1) {
			k, _ := strconv.Atoi(m[1])
			switch {
			case k <= -6:
				counts["shift k<=-ncol"]++
			case k >= 6:
				counts["shift k>=ncol"]++
			}
		}
		p := Compile(mods)
		for _, pr := range p.procs {
			for _, in := range pr.code {
				switch {
				case in.op == opLinV:
					counts[fmt.Sprintf("lin e&1=%d", in.e&1)]++
				case (in.op >= opAddV && in.op <= opPowV || in.op == opPowS) && in.e >= 3:
					counts[fmt.Sprintf("op%d e=%d", in.op, in.e)]++
				}
			}
		}
	}
	want := []string{"lin e&1=0", "lin e&1=1", "shift k<=-ncol", "shift k>=ncol"}
	for _, op := range []opcode{opAddV, opSubV, opMulV, opDivV, opPowV, opPowS} {
		want = append(want, fmt.Sprintf("op%d e=3", op), fmt.Sprintf("op%d e=4", op))
	}
	for _, k := range want {
		if counts[k] == 0 {
			t.Errorf("no %s in 1,000 generated programs", k)
		}
	}
	t.Log(counts)
}
