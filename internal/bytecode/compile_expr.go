package bytecode

import "github.com/climate-rca/rca/internal/fortran"

// okind classifies an operand's location. Whole-variable references
// stay "deferred" (oVarS/oGlobS/oPtrS/oFieldS): their loads are emitted
// when the consuming operation is, reproducing the walker's live-cell
// reads at zip time. Temporaries (oTempS) are values materialized at
// the position the walker would allocate a fresh Value.
type okind uint8

const (
	oNone okind = iota
	oTempS
	oVarS
	oConst
	oGlobS
	oPtrS
	oFieldS // reg = derived frame reg, f = scalar field slot
	oArr    // reg = frame array reg
	oDrv    // reg = frame derived reg
)

type opnd struct {
	kind      vkind
	ok        okind
	reg, f    int32
	cidx      int32
	dt        *dtype
	sTmp      bool
	aOwnTmp   bool
	aAliasTmp bool
}

func errOpnd() opnd { return opnd{kind: kErr} }

func (f *pcomp) release(o opnd) {
	if o.sTmp {
		f.freeSReg(o.reg)
	}
	if o.aOwnTmp {
		f.freeAOwnReg(o.reg)
	}
	if o.aAliasTmp {
		f.freeAAliasReg(o.reg)
	}
}

// matS materializes a scalar operand into an S register, emitting the
// deferred load at the call site (i.e. at consumption time).
func (f *pcomp) matS(o opnd) opnd {
	switch o.ok {
	case oTempS, oVarS:
		return o
	case oConst:
		t := f.allocS()
		f.emit(instr{op: opConst, d: t, a: o.cidx})
		return opnd{kind: kScal, ok: oTempS, reg: t, sTmp: true}
	case oGlobS:
		t := f.allocS()
		f.emit(instr{op: opLoadG, d: t, a: o.reg})
		return opnd{kind: kScal, ok: oTempS, reg: t, sTmp: true}
	case oPtrS:
		t := f.allocS()
		f.emit(instr{op: opLoadP, d: t, a: o.reg})
		return opnd{kind: kScal, ok: oTempS, reg: t, sTmp: true}
	case oFieldS:
		t := f.allocS()
		f.emit(instr{op: opLoadDF, d: t, a: o.reg, b: o.f})
		return opnd{kind: kScal, ok: oTempS, reg: t, sTmp: true}
	}
	panic("bytecode: matS on non-scalar operand")
}

// matSF is matS extended with the walker's at() phantom read on
// derived values (v.F, i.e. dval.f).
func (f *pcomp) matSF(o opnd) opnd {
	if o.kind == kDrv {
		t := f.allocS()
		f.emit(instr{op: opLoadDF0, d: t, a: o.reg})
		return opnd{kind: kScal, ok: oTempS, reg: t, sTmp: true}
	}
	return f.matS(o)
}

// dst is an optional destination hint applied only to the final
// operation of a right-hand side (element-local writes make in-place
// targets safe there and only there).
type dst struct {
	ok   bool
	kind vkind
	reg  int32
}

func (f *pcomp) pickS(d dst) opnd {
	if d.ok && d.kind == kScal {
		return opnd{kind: kScal, ok: oVarS, reg: d.reg}
	}
	return opnd{kind: kScal, ok: oTempS, reg: f.allocS(), sTmp: true}
}

func (f *pcomp) pickA(d dst) opnd {
	if d.ok && d.kind == kArr {
		return opnd{kind: kArr, ok: oArr, reg: d.reg}
	}
	return opnd{kind: kArr, ok: oArr, reg: f.allocAOwn(), aOwnTmp: true}
}

func (f *pcomp) tmpA() opnd {
	return opnd{kind: kArr, ok: oArr, reg: f.allocAOwn(), aOwnTmp: true}
}

func (f *pcomp) emitErr(format string, args ...interface{}) opnd {
	f.emit(instr{op: opErr, a: f.c.errIdx(format, args...)})
	return errOpnd()
}

var binOpS = map[fortran.Kind]opcode{
	fortran.PLUS: opAddS, fortran.MINUS: opSubS, fortran.STAR: opMulS,
	fortran.SLASH: opDivS, fortran.POW: opPowS, fortran.EQ: opEqS,
	fortran.NE: opNeS, fortran.LT: opLtS, fortran.LE: opLeS,
	fortran.GT: opGtS, fortran.GE: opGeS, fortran.AND: opAndS,
	fortran.OR: opOrS,
}

var binOpV = map[fortran.Kind]opcode{
	fortran.PLUS: opAddV, fortran.MINUS: opSubV, fortran.STAR: opMulV,
	fortran.SLASH: opDivV, fortran.POW: opPowV, fortran.EQ: opEqV,
	fortran.NE: opNeV, fortran.LT: opLtV, fortran.LE: opLeV,
	fortran.GT: opGtV, fortran.GE: opGeV, fortran.AND: opAndV,
	fortran.OR: opOrV,
}

func (f *pcomp) expr(e fortran.Expr) opnd { return f.exprD(e, dst{}) }

func (f *pcomp) exprD(e fortran.Expr, d dst) opnd {
	switch x := e.(type) {
	case *fortran.NumLit:
		return opnd{kind: kScal, ok: oConst, cidx: f.c.literal(x)}
	case *fortran.StrLit:
		return opnd{kind: kScal, ok: oConst, cidx: f.c.constant(0)}
	case *fortran.UnaryExpr:
		return f.unary(x, d)
	case *fortran.BinaryExpr:
		return f.binary(x, d)
	case *fortran.Ref:
		return f.ref(x, d)
	}
	return f.emitErr("unknown expression %T", e)
}

func (f *pcomp) unary(x *fortran.UnaryExpr, d dst) opnd {
	o := f.expr(x.X)
	switch o.kind {
	case kErr:
		return o
	case kDrv:
		f.release(o)
		return f.emitErr("unary op on derived value")
	case kScal:
		om := f.matS(o)
		rd := f.pickS(d)
		op := opNegS
		if x.Op == fortran.NOT {
			op = opNotS
		}
		f.emit(instr{op: op, d: rd.reg, a: om.reg})
		f.release(om)
		return rd
	default:
		rd := f.pickA(d)
		op := opNegV
		if x.Op == fortran.NOT {
			op = opNotV
		}
		f.emit(instr{op: op, d: rd.reg, a: o.reg})
		f.release(o)
		return rd
	}
}

// binary mirrors evalBinary, including its FMA pattern precedence:
// a*b±c fuses via the left operand first; under PLUS, c+a*b fuses via
// the right; under MINUS, c-a*b fuses as FMA(-a, b, c).
func (f *pcomp) binary(b *fortran.BinaryExpr, d dst) opnd {
	if b.Op == fortran.PLUS || b.Op == fortran.MINUS {
		if mul, ok := b.L.(*fortran.BinaryExpr); ok && mul.Op == fortran.STAR {
			return f.fmaNode(b, mul.L, mul.R, b.R, b.Op == fortran.MINUS, false, d)
		}
		if b.Op == fortran.PLUS {
			if mul, ok := b.R.(*fortran.BinaryExpr); ok && mul.Op == fortran.STAR {
				return f.fmaNode(b, mul.L, mul.R, b.L, false, false, d)
			}
		} else if mul, ok := b.R.(*fortran.BinaryExpr); ok && mul.Op == fortran.STAR {
			return f.fmaNode(b, mul.L, mul.R, b.L, false, true, d)
		}
	}
	return f.plainBinary(b, d)
}

func (f *pcomp) plainBinary(b *fortran.BinaryExpr, d dst) opnd {
	if x, c1, y, c2, ok := f.linParts(b); ok {
		return f.linComb(b.Op, x, c1, y, c2, d)
	}
	lo := f.expr(b.L)
	if lo.kind == kErr {
		return lo
	}
	ro := f.expr(b.R)
	if ro.kind == kErr {
		f.release(lo)
		return ro
	}
	if lo.kind == kDrv || ro.kind == kDrv {
		f.release(lo)
		f.release(ro)
		return f.emitErr("arithmetic on derived value")
	}
	if lo.kind == kScal && ro.kind == kScal {
		// ** with a literal operand reads the literal's consts slot in
		// the kernel, as the vector forms below do.
		if b.Op == fortran.POW && ro.ok == oConst {
			lm := f.matS(lo)
			rd := f.pickS(d)
			f.emit(instr{op: opPowS, d: rd.reg, a: lm.reg, b: ro.cidx, e: 3})
			f.release(lm)
			return rd
		}
		if b.Op == fortran.POW && lo.ok == oConst {
			rm := f.matS(ro)
			rd := f.pickS(d)
			f.emit(instr{op: opPowS, d: rd.reg, a: lo.cidx, b: rm.reg, e: 4})
			f.release(rm)
			return rd
		}
		lm := f.matS(lo)
		rm := f.matS(ro)
		rd := f.pickS(d)
		f.emit(instr{op: binOpS[b.Op], d: rd.reg, a: lm.reg, b: rm.reg})
		f.release(lm)
		f.release(rm)
		return rd
	}
	// An array operand against a literal reads the literal's consts
	// slot in the kernel under +, -, *, / and **.
	rd := f.pickA(d)
	vop := binOpV[b.Op]
	constForm := vop == opAddV || vop == opSubV || vop == opMulV || vop == opDivV || vop == opPowV
	switch {
	case lo.kind == kArr && ro.kind == kArr:
		f.emit(instr{op: vop, d: rd.reg, a: lo.reg, b: ro.reg, e: 0})
		f.release(lo)
		f.release(ro)
	case lo.kind == kArr && ro.ok == oConst && constForm:
		f.emit(instr{op: vop, d: rd.reg, a: lo.reg, b: ro.cidx, e: 3})
		f.release(lo)
	case lo.kind == kArr:
		rm := f.matS(ro)
		f.emit(instr{op: vop, d: rd.reg, a: lo.reg, b: rm.reg, e: 1})
		f.release(lo)
		f.release(rm)
	case lo.ok == oConst && constForm:
		f.emit(instr{op: vop, d: rd.reg, a: lo.cidx, b: ro.reg, e: 4})
		f.release(ro)
	default:
		lm := f.matS(lo)
		f.emit(instr{op: vop, d: rd.reg, a: lm.reg, b: ro.reg, e: 2})
		f.release(lm)
		f.release(ro)
	}
	return rd
}

// linParts matches the linear combination X*c1 ± Y*c2 of two array
// operands and two numeric literals that opLinV computes in one pass.
// Y must not call a user function: the walker reads X's cell before it
// evaluates Y, opLinV after, so Y's evaluation must not be able to
// write X.
func (f *pcomp) linParts(b *fortran.BinaryExpr) (x fortran.Expr, c1 *fortran.NumLit, y fortran.Expr, c2 *fortran.NumLit, ok bool) {
	if b.Op != fortran.PLUS && b.Op != fortran.MINUS {
		return
	}
	lm, ok1 := b.L.(*fortran.BinaryExpr)
	rm, ok2 := b.R.(*fortran.BinaryExpr)
	if !ok1 || !ok2 || lm.Op != fortran.STAR || rm.Op != fortran.STAR {
		return
	}
	c1, ok1 = lm.R.(*fortran.NumLit)
	c2, ok2 = rm.R.(*fortran.NumLit)
	if !ok1 || !ok2 || !f.callFree(rm.L) {
		return
	}
	if xk, _ := f.kindOf(lm.L); xk != kArr {
		return
	}
	if yk, _ := f.kindOf(rm.L); yk != kArr {
		return
	}
	return lm.L, c1, rm.L, c2, true
}

// callFree reports whether evaluating e calls no user function.
func (f *pcomp) callFree(e fortran.Expr) bool {
	switch x := e.(type) {
	case *fortran.UnaryExpr:
		return f.callFree(x.X)
	case *fortran.BinaryExpr:
		return f.callFree(x.L) && f.callFree(x.R)
	case *fortran.Ref:
		if x.HasParens && len(x.Components) == 0 && !intrinsicNames[x.Name] &&
			len(f.l.funcs[f.t.module+"::"+x.Name]) > 0 {
			return false
		}
		for _, a := range x.Args {
			if !f.callFree(a) {
				return false
			}
		}
	}
	return true
}

// linComb compiles X*c1 ± Y*c2 matched by linParts: X and Y evaluate
// in order, then opLinV forms both products and their sum or
// difference. linParts admits only operands kindOf types as arrays,
// and expr agrees with kindOf.
func (f *pcomp) linComb(op fortran.Kind, x fortran.Expr, c1 *fortran.NumLit, y fortran.Expr, c2 *fortran.NumLit, d dst) opnd {
	xo := f.expr(x)
	if xo.kind == kErr {
		return xo
	}
	yo := f.expr(y)
	if yo.kind == kErr {
		f.release(xo)
		return yo
	}
	if xo.kind != kArr || yo.kind != kArr {
		panic("bytecode: linComb on non-array operand")
	}
	k1, k2 := f.c.literal(c1), f.c.literal(c2)
	e := k2 << 1
	if op == fortran.MINUS {
		e |= 1
	}
	rd := f.pickA(d)
	f.emit(instr{op: opLinV, d: rd.reg, a: xo.reg, b: k1, c: yo.reg, e: e})
	f.release(xo)
	f.release(yo)
	return rd
}

// fmaNode compiles both evaluation orders of an FMA-fusable pattern
// behind a per-module runtime branch: the fused path evaluates a, b, c
// and applies math.FMA; the unfused path is the ordinary binary
// evaluation. The tree walker picks between these at every node per
// cfg.FMA(module); the VM picks per compiled branch flag.
func (f *pcomp) fmaNode(whole *fortran.BinaryExpr, ae, be, ce fortran.Expr, negC, negA bool, d dst) opnd {
	ak, _ := f.kindOf(ae)
	bk, _ := f.kindOf(be)
	ck, _ := f.kindOf(ce)
	fk := kScal
	switch {
	case ak == kErr || bk == kErr || ck == kErr:
		fk = kErr
	case ak == kArr || bk == kArr || ck == kArr:
		fk = kArr
	}
	uk := f.plainKind(whole)
	rk := fk
	if rk == kErr {
		rk = uk
	}
	if rk == kErr {
		// Both paths fail at runtime; compile them faithfully anyway.
		br := f.emit(instr{op: opBrNoFMA})
		f.fusedPath(ae, be, ce, negC, negA, opnd{}, kErr)
		f.code[br].b = int32(len(f.code))
		f.plainBinary(whole, dst{})
		return errOpnd()
	}
	var rd opnd
	if rk == kScal {
		rd = f.pickS(d)
	} else {
		rd = f.pickA(d)
	}
	br := f.emit(instr{op: opBrNoFMA})
	completed := f.fusedPath(ae, be, ce, negC, negA, rd, rk)
	jend := -1
	if completed {
		jend = f.emit(instr{op: opJmp})
	}
	f.code[br].b = int32(len(f.code))
	f.plainBinary(whole, dst{ok: true, kind: rk, reg: rd.reg})
	if jend >= 0 {
		f.code[jend].b = int32(len(f.code))
	}
	return rd
}

// plainKind is kindOf for the non-fused evaluation of a binary node.
func (f *pcomp) plainKind(b *fortran.BinaryExpr) vkind {
	lk, _ := f.kindOf(b.L)
	rk, _ := f.kindOf(b.R)
	if lk == kErr || rk == kErr || lk == kDrv || rk == kDrv {
		return kErr
	}
	if lk == kArr || rk == kArr {
		return kArr
	}
	return kScal
}

// fusedPath emits the a,b,c evaluation and the FMA op; returns false
// when the path ends in a guaranteed runtime error.
func (f *pcomp) fusedPath(ae, be, ce fortran.Expr, negC, negA bool, rd opnd, rk vkind) bool {
	oa := f.expr(ae)
	if oa.kind == kErr {
		return false
	}
	ob := f.expr(be)
	if ob.kind == kErr {
		f.release(oa)
		return false
	}
	oc := f.expr(ce)
	if oc.kind == kErr {
		f.release(oa)
		f.release(ob)
		return false
	}
	var signs int32
	if negA {
		signs |= 1
	}
	if negC {
		signs |= 2
	}
	if rk == kScal {
		am := f.matSF(oa)
		bm := f.matSF(ob)
		cm := f.matSF(oc)
		f.emit(instr{op: opFMAS, d: rd.reg, a: am.reg, b: bm.reg, c: cm.reg, e: signs})
		f.release(am)
		f.release(bm)
		f.release(cm)
		return true
	}
	e := signs
	var rel []opnd
	prep := func(o opnd, bit int32) int32 {
		switch {
		case o.kind == kArr:
			e |= 1 << (2 + bit)
			rel = append(rel, o)
			return o.reg
		case o.ok == oConst:
			e |= 1 << (5 + bit)
			return o.cidx
		}
		m := f.matSF(o)
		rel = append(rel, m)
		return m.reg
	}
	ar := prep(oa, 0)
	br := prep(ob, 1)
	cr := prep(oc, 2)
	f.emit(instr{op: opFMAV, d: rd.reg, a: ar, b: br, c: cr, e: e})
	for _, o := range rel {
		f.release(o)
	}
	return true
}
