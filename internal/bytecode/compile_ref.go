package bytecode

import "github.com/climate-rca/rca/internal/fortran"

// intrinsicNames mirrors interp's intrinsicFns table.
var intrinsicNames = map[string]bool{
	"min": true, "max": true, "abs": true, "sqrt": true, "exp": true,
	"log": true, "floor": true, "mod": true, "sign": true, "sum": true,
	"size": true, "shift": true,
}

// kindOf infers an expression's static shape without emitting code.
// kErr marks expressions whose evaluation the walker rejects at
// runtime. It may pre-create implicit locals (harmless: liveness is
// tracked by opTouch at the walker's creation points, not by slot
// existence).
func (f *pcomp) kindOf(e fortran.Expr) (vkind, *dtype) {
	switch x := e.(type) {
	case *fortran.NumLit, *fortran.StrLit:
		return kScal, nil
	case *fortran.UnaryExpr:
		k, _ := f.kindOf(x.X)
		if k == kDrv {
			return kErr, nil
		}
		return k, nil
	case *fortran.BinaryExpr:
		if x.Op == fortran.PLUS || x.Op == fortran.MINUS {
			var ae, be, ce fortran.Expr
			if mul, ok := x.L.(*fortran.BinaryExpr); ok && mul.Op == fortran.STAR {
				ae, be, ce = mul.L, mul.R, x.R
			} else if mul, ok := x.R.(*fortran.BinaryExpr); ok && mul.Op == fortran.STAR {
				ae, be, ce = mul.L, mul.R, x.L
			}
			if ae != nil {
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
				if fk != kErr {
					return fk, nil
				}
				return f.plainKind(x), nil
			}
		}
		return f.plainKind(x), nil
	case *fortran.Ref:
		return f.kindOfRef(x)
	}
	return kErr, nil
}

func (f *pcomp) kindOfRef(r *fortran.Ref) (vkind, *dtype) {
	if r.HasParens && len(r.Components) == 0 {
		if intrinsicNames[r.Name] {
			return f.kindOfIntrinsic(r)
		}
		if ts := f.l.funcs[f.t.module+"::"+r.Name]; len(ts) > 0 {
			return f.kindOfCall(ts, r.Args)
		}
	}
	vs := f.resolveQuiet(r.Name)
	kind, dt := vs.kind, vs.dt
	for _, comp := range r.Components {
		if kind != kDrv {
			return kErr, nil
		}
		fi, ok := dt.fidx[comp]
		if !ok {
			return kErr, nil
		}
		if dt.fields[fi].arr {
			kind = kArr
		} else {
			kind = kScal
		}
		dt = nil
	}
	if r.HasParens && kind == kArr && len(r.Args) == 1 {
		ik, _ := f.kindOf(r.Args[0])
		switch ik {
		case kScal:
			return kScal, nil
		case kErr:
			return kErr, nil
		default:
			return kArr, nil
		}
	}
	return kind, dt
}

func (f *pcomp) kindOfIntrinsic(r *fortran.Ref) (vkind, *dtype) {
	ks := make([]vkind, len(r.Args))
	var dt0 *dtype
	for i, a := range r.Args {
		k, dt := f.kindOf(a)
		if k == kErr {
			return kErr, nil
		}
		ks[i] = k
		if i == 0 {
			dt0 = dt
		}
	}
	anyArr := false
	for _, k := range ks {
		if k == kArr {
			anyArr = true
		}
	}
	switch r.Name {
	case "min", "max":
		if len(ks) < 2 {
			return kErr, nil
		}
		if anyArr {
			return kArr, nil
		}
		return kScal, nil
	case "abs", "sqrt", "exp", "log", "floor":
		if len(ks) != 1 || ks[0] == kDrv {
			return kErr, nil
		}
		return ks[0], nil
	case "mod", "sign":
		if len(ks) != 2 {
			return kErr, nil
		}
		if anyArr {
			return kArr, nil
		}
		return kScal, nil
	case "sum":
		if len(ks) != 1 || ks[0] == kDrv {
			return kErr, nil
		}
		return kScal, nil
	case "size":
		if len(ks) != 1 {
			return kErr, nil
		}
		return kScal, nil
	case "shift":
		if len(ks) != 2 {
			return kErr, nil
		}
		if ks[0] == kArr && ks[1] == kDrv {
			return kErr, nil // the walker panics reading the shift count
		}
		return ks[0], dt0
	}
	return kErr, nil
}

func (f *pcomp) kindOfCall(ts []target, args []fortran.Expr) (vkind, *dtype) {
	t := resolveOverload(ts, len(args))
	anyArr := false
	sig := make([]sigArg, len(t.sub.Args))
	for i := range sig {
		sig[i].mode = 'u'
	}
	for i, a := range args {
		k, dt := f.kindOf(a)
		if k == kErr {
			return kErr, nil
		}
		if k == kArr {
			anyArr = true
		}
		if i < len(sig) {
			switch k {
			case kScal:
				sig[i] = sigArg{mode: 'S'}
			case kArr:
				sig[i] = sigArg{mode: 'A'}
			case kDrv:
				sig[i] = sigArg{mode: 'D', dt: dt}
			}
		}
	}
	if t.sub.Elemental && anyArr {
		return kArr, nil
	}
	return f.resultKind(t, sig)
}

// resultKind computes a function specialization's result shape: the
// bound argument slot if the result variable collides with an
// argument name, else its first declaration, else a fresh scalar.
func (f *pcomp) resultKind(t target, sig []sigArg) (vkind, *dtype) {
	rv := t.sub.ResultVar()
	var bound *sigArg
	for i, an := range t.sub.Args {
		if an == rv && i < len(sig) && sig[i].mode != 'u' {
			sa := sig[i]
			bound = &sa
		}
	}
	if bound != nil {
		switch bound.mode {
		case 'a', 'A':
			return kArr, nil
		case 'd', 'D':
			return kDrv, bound.dt
		default:
			return kScal, nil
		}
	}
	for _, d := range t.sub.Decls {
		for _, n := range d.Names {
			if n != rv {
				continue
			}
			if d.IsType {
				if fdt, ok := f.l.types[t.module][d.BaseType]; ok {
					return kDrv, f.l.internType(fdt)
				}
				return kScal, nil // activation fails before the result is read
			}
			if d.IsArrayName(rv) {
				return kArr, nil
			}
			return kScal, nil
		}
	}
	return kScal, nil
}

// cellRef is a resolved storage cell (possibly a derived component).
type cellRef struct {
	kind    vkind
	space   vspace // base space for non-field cells
	reg     int32
	dt      *dtype
	isField bool
	dreg    int32 // bound frame derived register holding the parent
	fslot   int32
	bad     bool

	// at is the base variable's storage cell (the parent's, for a
	// component); dummy marks a base that is a bound dummy argument.
	at    cell
	dummy bool
}

// drvReg resolves a derived cell to a frame D register: frame cells
// directly, globals through their hoisted prologue binding.
func (f *pcomp) drvReg(vs *vslot) int32 {
	if vs.space == vsDrv {
		return vs.reg
	}
	return f.hoistGDrv(vs.reg)
}

// walkRef is the lvalue resolution point: base variable (creating and
// touching implicit locals), then the derived component chain. On a
// resolution failure the walker reports, the error is emitted and
// bad is set.
func (f *pcomp) walkRef(r *fortran.Ref) cellRef {
	vs := f.resolveVar(r.Name)
	cr := cellRef{kind: vs.kind, space: vs.space, reg: vs.reg, dt: vs.dt}
	at, dummy := f.cellOf(vs), vs.dummy
	for _, comp := range r.Components {
		if cr.kind != kDrv {
			f.emitErr("%s is not derived (component %s)", r.Name, comp)
			return cellRef{bad: true}
		}
		fi, ok := cr.dt.fidx[comp]
		if !ok {
			f.emitErr("no component %s", comp)
			return cellRef{bad: true}
		}
		if cr.isField {
			// Unreachable: fields are never derived (flat types).
			f.emitErr("nested derived component %s", comp)
			return cellRef{bad: true}
		}
		dreg := f.drvReg(&vslot{kind: kDrv, space: cr.space, reg: cr.reg, dt: cr.dt})
		fd := cr.dt.fields[fi]
		kind := kScal
		if fd.arr {
			kind = kArr
		}
		cr = cellRef{kind: kind, isField: true, dreg: dreg, fslot: fd.slot}
	}
	cr.at, cr.dummy = at, dummy
	return cr
}

// arrOpnd resolves an array cell to an A register operand: frame
// cells directly, globals and derived-field arrays through hoisted
// prologue bindings.
func (f *pcomp) arrOpnd(cr cellRef) opnd {
	if cr.isField {
		return opnd{kind: kArr, ok: oArr, reg: f.hoistDF(cr.dreg, cr.fslot)}
	}
	switch cr.space {
	case vsArr:
		return opnd{kind: kArr, ok: oArr, reg: cr.reg}
	case vsGArr:
		return opnd{kind: kArr, ok: oArr, reg: f.hoistGArr(cr.reg)}
	}
	panic("bytecode: arrOpnd on non-array cell")
}

// cellOpnd converts a resolved cell to a (deferred, live) operand.
func (f *pcomp) cellOpnd(cr cellRef) opnd {
	switch cr.kind {
	case kScal:
		if cr.isField {
			return opnd{kind: kScal, ok: oFieldS, reg: cr.dreg, f: cr.fslot}
		}
		switch cr.space {
		case vsScal:
			return opnd{kind: kScal, ok: oVarS, reg: cr.reg}
		case vsPtr:
			return opnd{kind: kScal, ok: oPtrS, reg: cr.reg}
		case vsGScal:
			return opnd{kind: kScal, ok: oGlobS, reg: cr.reg}
		}
	case kArr:
		return f.arrOpnd(cr)
	case kDrv:
		if cr.space == vsDrv {
			return opnd{kind: kDrv, ok: oDrv, reg: cr.reg, dt: cr.dt}
		}
		return opnd{kind: kDrv, ok: oDrv, reg: f.hoistGDrv(cr.reg), dt: cr.dt}
	}
	panic("bytecode: cellOpnd on bad cell")
}

// ref compiles a reference in expression position, mirroring evalRef:
// intrinsics first, then visible functions, then variable access with
// the walker's element/whole-cell selection.
func (f *pcomp) ref(r *fortran.Ref, d dst) opnd {
	if r.HasParens && len(r.Components) == 0 {
		if intrinsicNames[r.Name] {
			return f.intrinsic(r, d)
		}
		if ts := f.l.funcs[f.t.module+"::"+r.Name]; len(ts) > 0 {
			return f.callFunc(ts, r.Args, d)
		}
	}
	cr := f.walkRef(r)
	if cr.bad {
		return errOpnd()
	}
	f.noteRead(cr.at)
	if r.HasParens && cr.kind == kArr && len(r.Args) == 1 {
		ik, _ := f.kindOf(r.Args[0])
		switch ik {
		case kErr:
			return f.expr(r.Args[0])
		case kScal:
			io := f.index(r.Args[0])
			im := f.matS(io)
			ao := f.arrOpnd(cr)
			ireg := f.allocI()
			f.emit(instr{op: opIdx, d: ireg, a: ao.reg, b: im.reg, e: f.c.str(r.Name)})
			f.release(im)
			rd := f.pickS(d)
			f.emit(instr{op: opLoadElem, d: rd.reg, a: ao.reg, b: ireg})
			f.freeIReg(ireg)
			f.release(ao)
			return rd
		default:
			io := f.expr(r.Args[0])
			f.release(io)
			return f.cellOpnd(cr)
		}
	}
	return f.cellOpnd(cr)
}
