package bytecode

import (
	"strconv"
	"strings"
	"sync"

	"github.com/climate-rca/rca/internal/fortran"
)

// Compile lowers parsed FortLite modules to a bytecode Program. The
// result is immutable and safe for concurrent NewBatchVM use;
// construction failures the tree walker would report from NewMachine
// are recorded in the program and surfaced by NewBatchVM, so the two
// engines agree on which programs run at all.
func Compile(mods []*fortran.Module) *Program {
	prog, _ := compile(mods)
	return prog
}

// compile is Compile returning the compiler too, whose slice records
// the tests inspect.
func compile(mods []*fortran.Module) (*Program, *compiler) {
	prog := &Program{
		moduleIdx: make(map[string]int),
		entries:   make(map[string]*proc),
	}
	l := newLinker(mods, prog)
	if err := l.link(); err != nil {
		prog.initErr = err
		return prog, nil
	}
	c := &compiler{
		link:     l,
		prog:     prog,
		specs:    make(map[*fortran.Subprogram]map[string]*proc),
		constIdx: make(map[float64]int32),
		strIdx:   make(map[string]int32),
	}
	c.bindSites(mods)
	// Entry points: every subroutine key resolvable at arity zero (the
	// driver's Call path), compiled with all arguments unbound.
	var keys []string
	for k := range l.subs {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		t := resolveOverload(l.subs[k], 0)
		p := c.spec(t, unboundSig(t.sub))
		prog.entries[k] = p
	}
	if c.err != nil {
		prog.initErr = c.err
	} else {
		c.slice()
	}
	prog.batchVMs = new(sync.Map)
	return prog, c
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// resolveOverload mirrors Machine.resolveOverload: first arity match,
// else the first candidate.
func resolveOverload(ts []target, arity int) target {
	for _, t := range ts {
		if len(t.sub.Args) == arity {
			return t
		}
	}
	return ts[0]
}

// sigArg is one argument's binding mode in a specialization signature.
type sigArg struct {
	mode byte // 'u','s','S','a','A','d','D'
	dt   *dtype
}

func unboundSig(sub *fortran.Subprogram) []sigArg {
	return make([]sigArg, len(sub.Args)) // zero mode → normalized below
}

func sigKey(sig []sigArg) string {
	var b strings.Builder
	for _, a := range sig {
		m := a.mode
		if m == 0 {
			m = 'u'
		}
		b.WriteByte(m)
		if a.dt != nil {
			b.WriteString(strconv.Itoa(a.dt.id))
		}
		b.WriteByte(';')
	}
	return b.String()
}

type compiler struct {
	link     *linker
	prog     *Program
	specs    map[*fortran.Subprogram]map[string]*proc
	sites    map[*fortran.NumLit]int32
	constIdx map[float64]int32
	strIdx   map[string]int32
	err      error

	// The output slice's inputs: every assignment's record, every read
	// that roots the slice, and, after slice, the output-live cells.
	asgs  []*asgRec
	roots []cell
	live  map[cell]bool
}

// bindSites gives every statement literal the shaper recorded its own
// const slot, in Lits order, as the leading prefix of consts. Slots are
// not shared by value, so the layout is a function of the shape alone
// and Rebind rewrites the prefix in place of compiling.
func (c *compiler) bindSites(mods []*fortran.Module) {
	n := 0
	for _, m := range mods {
		n += len(m.Lits)
	}
	c.sites = make(map[*fortran.NumLit]int32, n)
	c.prog.consts = make([]float64, 0, n)
	for _, m := range mods {
		for _, lit := range m.Lits {
			c.sites[lit] = int32(len(c.prog.consts))
			c.prog.consts = append(c.prog.consts, lit.Value)
		}
	}
	c.prog.nLits = n
}

// literal returns the const slot of a statement literal: its site slot,
// or, in a module built by hand (no Lits), a value-shared slot.
func (c *compiler) literal(x *fortran.NumLit) int32 {
	if i, ok := c.sites[x]; ok {
		return i
	}
	return c.constant(x.Value)
}

func (c *compiler) constant(v float64) int32 {
	// NaN never equals itself; give each NaN literal its own slot.
	if v == v {
		if i, ok := c.constIdx[v]; ok {
			return i
		}
	}
	i := int32(len(c.prog.consts))
	c.prog.consts = append(c.prog.consts, v)
	if v == v {
		c.constIdx[v] = i
	}
	return i
}

func (c *compiler) str(s string) int32 {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	i := int32(len(c.prog.labels))
	c.prog.labels = append(c.prog.labels, s)
	c.strIdx[s] = i
	return i
}

func (c *compiler) errIdx(format string, args ...interface{}) int32 {
	c.prog.errs = append(c.prog.errs, errf(format, args...))
	return int32(len(c.prog.errs) - 1)
}

// spec returns (compiling on first request) the specialization of a
// target for one argument-binding signature. Recursive requests see
// the registered shell; its code is filled before any VM runs.
func (c *compiler) spec(t target, sig []sigArg) *proc {
	for i := range sig {
		if sig[i].mode == 0 {
			sig[i].mode = 'u'
		}
	}
	m := c.specs[t.sub]
	if m == nil {
		m = make(map[string]*proc)
		c.specs[t.sub] = m
	}
	key := sigKey(sig)
	if p, ok := m[key]; ok {
		return p
	}
	mi := c.prog.moduleIdx[t.module]
	p := &proc{
		id:       len(c.prog.procs),
		module:   t.module,
		modIdx:   int32(mi),
		name:     t.sub.Name,
		fullName: t.module + "::" + t.sub.Name,
		isFunc:   t.sub.Kind == fortran.KindFunction,
	}
	c.prog.procs = append(c.prog.procs, p)
	m[key] = p
	f := &pcomp{c: c, l: c.link, p: p, t: t, sub: t.sub, sig: sig,
		vars:     make(map[string]*vslot),
		gArrBind: make(map[int32]int32),
		gDrvBind: make(map[int32]int32),
		dfBind:   make(map[[2]int32]int32)}
	f.compile()
	return p
}

// vspace addresses a resolved variable at compile time.
type vspace uint8

const (
	vsScal vspace = iota // frame scal
	vsPtr                // frame ptr (by-ref scalar arg)
	vsArr                // frame array reg
	vsDrv                // frame derived reg
	vsGScal
	vsGArr
	vsGDrv
)

type vslot struct {
	kind  vkind
	space vspace
	reg   int32
	dt    *dtype
	touch int32 // >= 0: implicit local liveness bit
	dummy bool  // a bound dummy argument
}

// pcomp compiles one proc specialization.
type pcomp struct {
	c      *compiler
	l      *linker
	p      *proc
	t      target
	sub    *fortran.Subprogram
	sig    []sigArg
	vars   map[string]*vslot
	code   []instr
	dead   bool // a guaranteed construction error was emitted
	nTouch int  // implicit locals allocated so far

	// Slice recording: the assignment being compiled (nil outside
	// one), the depth of element indices and call arguments inside it,
	// whose reads root the slice, the proc's assignment records and
	// the reads they hold slices of.
	cur     *asgRec
	rootCtx int
	asgs    []asgRec
	reads   []cell

	// Hoisted bindings: globals and derived-field arrays referenced by
	// the body bind once per activation in the prologue instead of at
	// every use (binding is identity-only, so over-binding is
	// unobservable). Maps give O(1) reuse; orders keep codegen
	// deterministic.
	gArrBind  map[int32]int32 // global array → fixed A reg
	gArrOrder []int32
	gDrvBind  map[int32]int32 // global derived → fixed D reg
	gDrvOrder []int32
	dfBind    map[[2]int32]int32 // (fixed D reg, slot) → fixed A reg
	dfOrder   [][2]int32

	freeS      []int32
	freeI      []int32
	freeAOwn   []int32
	freeAAlias []int32
}

func (f *pcomp) emit(in instr) int {
	f.code = append(f.code, in)
	return len(f.code) - 1
}

func (f *pcomp) allocS() int32 {
	if n := len(f.freeS); n > 0 {
		r := f.freeS[n-1]
		f.freeS = f.freeS[:n-1]
		return r
	}
	r := int32(f.p.nScal)
	f.p.nScal++
	return r
}
func (f *pcomp) freeSReg(r int32) { f.freeS = append(f.freeS, r) }

func (f *pcomp) allocI2() int32 {
	r := int32(f.p.nInt)
	f.p.nInt += 2
	return r
}
func (f *pcomp) allocI() int32 {
	if n := len(f.freeI); n > 0 {
		r := f.freeI[n-1]
		f.freeI = f.freeI[:n-1]
		return r
	}
	r := int32(f.p.nInt)
	f.p.nInt++
	return r
}
func (f *pcomp) freeIReg(r int32) { f.freeI = append(f.freeI, r) }

func (f *pcomp) allocAOwn() int32 {
	if n := len(f.freeAOwn); n > 0 {
		r := f.freeAOwn[n-1]
		f.freeAOwn = f.freeAOwn[:n-1]
		return r
	}
	r := int32(f.p.nArr)
	f.p.nArr++
	f.p.ownArr = append(f.p.ownArr, r)
	return r
}
func (f *pcomp) freeAOwnReg(r int32) { f.freeAOwn = append(f.freeAOwn, r) }

func (f *pcomp) allocAAlias() int32 {
	if n := len(f.freeAAlias); n > 0 {
		r := f.freeAAlias[n-1]
		f.freeAAlias = f.freeAAlias[:n-1]
		return r
	}
	r := int32(f.p.nArr)
	f.p.nArr++
	return r
}
func (f *pcomp) freeAAliasReg(r int32) { f.freeAAlias = append(f.freeAAlias, r) }

func (f *pcomp) allocDOwn(dt *dtype) int32 {
	r := int32(f.p.nDrv)
	f.p.nDrv++
	f.p.ownDrv = append(f.p.ownDrv, struct {
		reg int32
		dt  *dtype
	}{r, dt})
	return r
}

func (f *pcomp) fixedA() int32 {
	r := int32(f.p.nArr)
	f.p.nArr++
	return r
}
func (f *pcomp) fixedD() int32 {
	r := int32(f.p.nDrv)
	f.p.nDrv++
	return r
}

// compile builds the var table (mirroring invoke's frame setup), the
// prologue (local initializers) and the body.
func (f *pcomp) compile() {
	p, sub := f.p, f.sub
	// Arguments. Later duplicate names rebind, as the walker's
	// f.vars[an] = args[i] overwrite does.
	p.argBind = make([]argSlot, len(sub.Args))
	for i, an := range sub.Args {
		sa := f.sig[i]
		var vs *vslot
		switch sa.mode {
		case 'u':
			p.argBind[i] = argSlot{mode: 'u'}
			continue
		case 's':
			r := int32(p.nPtr)
			p.nPtr++
			vs = &vslot{kind: kScal, space: vsPtr, reg: r, touch: -1}
		case 'S':
			vs = &vslot{kind: kScal, space: vsScal, reg: f.allocS(), touch: -1}
		case 'a':
			vs = &vslot{kind: kArr, space: vsArr, reg: f.fixedA(), touch: -1}
		case 'A':
			r := f.fixedA()
			p.ownArr = append(p.ownArr, r)
			vs = &vslot{kind: kArr, space: vsArr, reg: r, touch: -1}
		case 'd':
			vs = &vslot{kind: kDrv, space: vsDrv, reg: f.fixedD(), dt: sa.dt, touch: -1}
		case 'D':
			vs = &vslot{kind: kDrv, space: vsDrv, reg: f.allocDOwn(sa.dt), dt: sa.dt, touch: -1}
		}
		vs.dummy = true
		p.argBind[i] = argSlot{mode: sa.mode, reg: vs.reg}
		f.vars[an] = vs
		f.addSnap(an, vs)
	}
	// Locals: first declaration of a name wins (names already present —
	// arguments or earlier declarations — are skipped); initializer and
	// type failures abort the activation at this point.
	for _, d := range sub.Decls {
		for _, n := range d.Names {
			if _, present := f.vars[n]; present {
				continue
			}
			var vs *vslot
			if d.IsType {
				fdt, ok := f.l.types[f.t.module][d.BaseType]
				if !ok {
					f.emit(instr{op: opErr, a: f.c.errIdx("%s::%s: unknown derived type %q", f.t.module, sub.Name, d.BaseType)})
					f.dead = true
					break
				}
				dt := f.l.internType(fdt)
				vs = &vslot{kind: kDrv, space: vsDrv, reg: f.allocDOwn(dt), dt: dt, touch: -1}
			} else if d.IsArrayName(n) {
				r := f.allocAOwn()
				f.p.zeroArr = append(f.p.zeroArr, r)
				vs = &vslot{kind: kArr, space: vsArr, reg: r, touch: -1}
				// Owned locals stay allocated (and zeroed) per activation.
			} else {
				vs = &vslot{kind: kScal, space: vsScal, reg: f.allocS(), touch: -1}
			}
			if d.Init != nil {
				v, err := constEval(d.Init)
				if err != nil {
					f.emit(instr{op: opErr, a: f.c.errIdx("%s::%s: %s: %v", f.t.module, sub.Name, n, err)})
					f.dead = true
					break
				}
				switch vs.kind {
				case kScal:
					f.emit(instr{op: opConst, d: vs.reg, a: f.c.constant(v)})
				case kArr:
					t := f.allocS()
					f.emit(instr{op: opConst, d: t, a: f.c.constant(v)})
					f.emit(instr{op: opBroadV, d: vs.reg, a: t})
					f.freeSReg(t)
					// Derived: assignInto from a scalar is a no-op.
				}
			}
			f.vars[n] = vs
			f.addSnap(n, vs)
		}
		if f.dead {
			break
		}
	}
	// Function result variable.
	if !f.dead && sub.Kind == fortran.KindFunction {
		rv := sub.ResultVar()
		if _, ok := f.vars[rv]; !ok {
			vs := &vslot{kind: kScal, space: vsScal, reg: f.allocS(), touch: -1}
			f.vars[rv] = vs
			f.addSnap(rv, vs)
		}
		vs := f.vars[rv]
		p.ret = retLoc{kind: vs.kind, reg: vs.reg}
		switch vs.space {
		case vsScal:
			p.ret.space = ssScal
		case vsPtr:
			p.ret.space = ssPtr
		case vsArr:
			p.ret.space = ssArr
		case vsDrv:
			p.ret.space = ssDrvF // marker: whole derived; reg is the dreg
		}
		p.retDt = vs.dt
		f.c.roots = append(f.c.roots, f.cellOf(vs))
	}
	if !f.dead {
		f.stmts(sub.Body)
	}
	f.emit(instr{op: opRet})
	p.code = f.assemble()
	p.nTouch = f.nTouch
	off := int32(len(p.code) - len(f.code))
	for i := range f.asgs {
		a := &f.asgs[i]
		a.p, a.start, a.end = p, a.start+off, a.end+off
		f.c.asgs = append(f.c.asgs, a)
	}
}

// assemble prepends the hoisted bind prologue to the compiled body,
// shifting every absolute branch target by the prologue length.
func (f *pcomp) assemble() []instr {
	var pro []instr
	for _, g := range f.gArrOrder {
		pro = append(pro, instr{op: opBindG, d: f.gArrBind[g], a: g})
	}
	for _, g := range f.gDrvOrder {
		pro = append(pro, instr{op: opBindGD, d: f.gDrvBind[g], a: g})
	}
	for _, k := range f.dfOrder {
		pro = append(pro, instr{op: opBindDF, d: f.dfBind[k], a: k[0], b: k[1]})
	}
	if len(pro) == 0 {
		return f.code
	}
	off := int32(len(pro))
	for i := range f.code {
		if isJump(f.code[i].op) {
			f.code[i].b += off
		}
	}
	return append(pro, f.code...)
}

// hoistGArr returns the fixed A register a global array binds to.
func (f *pcomp) hoistGArr(g int32) int32 {
	if r, ok := f.gArrBind[g]; ok {
		return r
	}
	r := f.fixedA()
	f.gArrBind[g] = r
	f.gArrOrder = append(f.gArrOrder, g)
	return r
}

// hoistGDrv returns the fixed D register a global derived binds to.
func (f *pcomp) hoistGDrv(g int32) int32 {
	if r, ok := f.gDrvBind[g]; ok {
		return r
	}
	r := f.fixedD()
	f.gDrvBind[g] = r
	f.gDrvOrder = append(f.gDrvOrder, g)
	return r
}

// hoistDF returns the fixed A register a (fixed dreg, slot) field
// array binds to.
func (f *pcomp) hoistDF(dreg, slot int32) int32 {
	k := [2]int32{dreg, slot}
	if r, ok := f.dfBind[k]; ok {
		return r
	}
	r := f.fixedA()
	f.dfBind[k] = r
	f.dfOrder = append(f.dfOrder, k)
	return r
}

// addSnap records a frame variable for the KernelWatch / SnapshotAll
// exit snapshots, flattening derived components.
func (f *pcomp) addSnap(name string, vs *vslot) {
	prefix := f.t.module + "::" + f.sub.Name + "::"
	touch := vs.touch
	switch vs.kind {
	case kScal:
		sp := ssScal
		if vs.space == vsPtr {
			sp = ssPtr
		}
		f.p.snap = append(f.p.snap, snapEntry{name: name, key: prefix + name, space: sp, reg: vs.reg, touch: touch})
	case kArr:
		f.p.snap = append(f.p.snap, snapEntry{name: name, key: prefix + name, space: ssArr, reg: vs.reg, touch: touch})
	case kDrv:
		for _, fd := range vs.dt.fields {
			sp := ssDrvF
			if fd.arr {
				sp = ssDrvA
			}
			f.p.snap = append(f.p.snap, snapEntry{name: fd.name, key: prefix + fd.name, space: sp, reg: vs.reg, f: fd.slot, fromDerived: true, touch: touch})
		}
	}
}

func (f *pcomp) resolveQuiet(name string) *vslot {
	if v, ok := f.vars[name]; ok {
		return v
	}
	if g, ok := f.l.storage[f.t.module][name]; ok {
		switch g.kind {
		case kScal:
			return &vslot{kind: kScal, space: vsGScal, reg: g.idx, touch: -1}
		case kArr:
			return &vslot{kind: kArr, space: vsGArr, reg: g.idx, touch: -1}
		case kDrv:
			return &vslot{kind: kDrv, space: vsGDrv, reg: g.idx, dt: g.dt, touch: -1}
		}
	}
	// Implicit local: a fresh scalar created on first touch at runtime.
	vs := &vslot{kind: kScal, space: vsScal, reg: f.allocS(), touch: int32(f.nTouch)}
	f.nTouch++
	f.vars[name] = vs
	f.addSnap(name, vs)
	return vs
}

// resolveVar is the lvalue resolution point: implicit locals are
// marked live here, exactly where the walker would create them.
func (f *pcomp) resolveVar(name string) *vslot {
	vs := f.resolveQuiet(name)
	if vs.touch >= 0 {
		f.emit(instr{op: opTouch, a: vs.touch})
	}
	return vs
}
