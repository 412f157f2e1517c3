package bytecode

import "github.com/climate-rca/rca/internal/fortran"

// intrinsic compiles a built-in call. Mirroring evalIntrinsic, every
// argument is evaluated eagerly first; arity and shape failures error
// after those evaluations.
func (f *pcomp) intrinsic(r *fortran.Ref, d dst) opnd {
	var os []opnd
	for _, a := range r.Args {
		o := f.expr(a)
		if o.kind == kErr {
			for _, p := range os {
				f.release(p)
			}
			return o
		}
		os = append(os, o)
	}
	bail := func(format string, args ...interface{}) opnd {
		for _, p := range os {
			f.release(p)
		}
		return f.emitErr(format, args...)
	}
	switch r.Name {
	case "abs", "sqrt", "exp", "log", "floor":
		if len(os) != 1 {
			return bail("intrinsic wants 1 arg, got %d", len(os))
		}
		o := os[0]
		var sOp, vOp opcode
		switch r.Name {
		case "abs":
			sOp, vOp = opAbsS, opAbsV
		case "sqrt":
			sOp, vOp = opSqrtS, opSqrtV
		case "exp":
			sOp, vOp = opExpS, opExpV
		case "log":
			sOp, vOp = opLogS, opLogV
		case "floor":
			sOp, vOp = opFloorS, opFloorV
		}
		switch o.kind {
		case kDrv:
			return bail("intrinsic on derived value")
		case kScal:
			om := f.matS(o)
			rd := f.pickS(d)
			f.emit(instr{op: sOp, d: rd.reg, a: om.reg})
			f.release(om)
			return rd
		default:
			rd := f.pickA(d)
			f.emit(instr{op: vOp, d: rd.reg, a: o.reg})
			f.release(o)
			return rd
		}
	case "mod", "sign":
		if len(os) != 2 {
			return bail("intrinsic wants 2 args, got %d", len(os))
		}
		sOp, vOp := opModS, opModV
		if r.Name == "sign" {
			sOp, vOp = opSignS, opSignV
		}
		a, b := os[0], os[1]
		if a.kind != kArr && b.kind != kArr {
			am := f.matSF(a)
			bm := f.matSF(b)
			rd := f.pickS(d)
			f.emit(instr{op: sOp, d: rd.reg, a: am.reg, b: bm.reg})
			f.release(am)
			f.release(bm)
			return rd
		}
		rd := f.pickA(d)
		switch {
		case a.kind == kArr && b.kind == kArr:
			f.emit(instr{op: vOp, d: rd.reg, a: a.reg, b: b.reg, e: 0})
			f.release(a)
			f.release(b)
		case a.kind == kArr:
			bm := f.matSF(b)
			f.emit(instr{op: vOp, d: rd.reg, a: a.reg, b: bm.reg, e: 1})
			f.release(a)
			f.release(bm)
		default:
			am := f.matSF(a)
			f.emit(instr{op: vOp, d: rd.reg, a: am.reg, b: b.reg, e: 2})
			f.release(am)
			f.release(b)
		}
		return rd
	case "min", "max":
		if len(os) < 2 {
			return bail("min/max want >= 2 args")
		}
		sOp, vOp := opMinS, opMinV
		if r.Name == "max" {
			sOp, vOp = opMaxS, opMaxV
		}
		anyArr := false
		for _, o := range os {
			if o.kind == kArr {
				anyArr = true
			}
		}
		// Materialize scalar operands now — the walker reads every cell
		// inside the intrinsic, after all evaluations.
		mats := make([]opnd, len(os))
		for i, o := range os {
			if o.kind == kArr {
				mats[i] = o
			} else {
				mats[i] = f.matSF(o)
			}
		}
		if !anyArr {
			// Fold left in a temp; the last op may target the hint.
			acc := mats[0]
			for i := 1; i < len(mats); i++ {
				var rd opnd
				if i == len(mats)-1 {
					rd = f.pickS(d)
				} else {
					rd = opnd{kind: kScal, ok: oTempS, reg: f.allocS(), sTmp: true}
				}
				f.emit(instr{op: sOp, d: rd.reg, a: acc.reg, b: mats[i].reg})
				if i > 1 {
					f.release(acc)
				} else {
					f.release(mats[0])
				}
				f.release(mats[i])
				acc = rd
			}
			return acc
		}
		acc := mats[0]
		for i := 1; i < len(mats); i++ {
			var rd opnd
			if i == len(mats)-1 {
				rd = f.pickA(d)
			} else {
				rd = f.tmpA()
			}
			b := mats[i]
			var shape int32
			var ar, br int32
			switch {
			case acc.kind == kArr && b.kind == kArr:
				shape, ar, br = 0, acc.reg, b.reg
			case acc.kind == kArr:
				shape, ar, br = 1, acc.reg, b.reg
			default:
				shape, ar, br = 2, acc.reg, b.reg
			}
			f.emit(instr{op: vOp, d: rd.reg, a: ar, b: br, e: shape})
			f.release(acc)
			f.release(b)
			acc = rd
		}
		return acc
	case "sum":
		if len(os) != 1 {
			return bail("sum wants 1 arg")
		}
		o := os[0]
		switch o.kind {
		case kDrv:
			return bail("sum of derived value")
		case kArr:
			rd := f.pickS(d)
			f.emit(instr{op: opSumV, d: rd.reg, a: o.reg})
			f.release(o)
			return rd
		default:
			// sum(scalar) is a fresh copy of the value at this point.
			m := f.matS(o)
			if m.ok == oTempS {
				return m
			}
			t := f.allocS()
			f.emit(instr{op: opMovS, d: t, a: m.reg})
			return opnd{kind: kScal, ok: oTempS, reg: t, sTmp: true}
		}
	case "size":
		if len(os) != 1 {
			return bail("size wants 1 arg")
		}
		o := os[0]
		rd := f.pickS(d)
		if o.kind == kArr {
			f.emit(instr{op: opNcol, d: rd.reg})
		} else {
			f.emit(instr{op: opConst, d: rd.reg, a: f.c.constant(1)})
		}
		f.release(o)
		return rd
	case "shift":
		if len(os) != 2 {
			return bail("shift wants 2 args")
		}
		v, kv := os[0], os[1]
		if v.kind != kArr {
			// Non-arrays pass through — including the walker's aliasing
			// of the first operand's cell.
			f.release(kv)
			return v
		}
		if kv.kind == kDrv {
			return bail("shift count is a derived value")
		}
		var km opnd
		if kv.kind == kArr {
			t := f.allocS()
			f.emit(instr{op: opCollapse, d: t, a: kv.reg})
			f.release(kv)
			km = opnd{kind: kScal, ok: oTempS, reg: t, sTmp: true}
		} else {
			km = f.matS(kv)
		}
		rd := f.tmpA() // rotation is never safe in place
		f.emit(instr{op: opShiftV, d: rd.reg, a: v.reg, b: km.reg})
		f.release(v)
		f.release(km)
		return rd
	}
	return bail("unknown intrinsic %q", r.Name)
}

// callFunc compiles a user function call: arguments evaluate eagerly
// left to right, then clone (by-value binding) at call time — or, for
// elemental targets with any array argument, broadcast per column.
func (f *pcomp) callFunc(ts []target, args []fortran.Expr, d dst) opnd {
	t := resolveOverload(ts, len(args))
	var os []opnd
	f.rootCtx++
	defer func() { f.rootCtx-- }()
	for _, a := range args {
		o := f.expr(a)
		if o.kind == kErr {
			for _, p := range os {
				f.release(p)
			}
			return o
		}
		os = append(os, o)
	}
	anyArr := false
	for _, o := range os {
		if o.kind == kArr {
			anyArr = true
		}
	}
	if t.sub.Elemental && anyArr {
		return f.elemCall(t, os, d)
	}
	sig := make([]sigArg, len(t.sub.Args))
	var moves []argMove
	for i := range sig {
		if i >= len(os) {
			sig[i] = sigArg{mode: 'u'}
			continue
		}
		o := os[i]
		switch o.kind {
		case kScal:
			sig[i] = sigArg{mode: 'S'}
			switch o.ok {
			case oConst:
				m := f.matS(o)
				os[i] = m
				moves = append(moves, argMove{mode: amValScalS, a: m.reg})
			case oTempS, oVarS:
				moves = append(moves, argMove{mode: amValScalS, a: o.reg})
			case oGlobS:
				moves = append(moves, argMove{mode: amValScalG, a: o.reg})
			case oPtrS:
				moves = append(moves, argMove{mode: amValScalP, a: o.reg})
			case oFieldS:
				moves = append(moves, argMove{mode: amValScalDF, a: o.reg, b: o.f})
			}
		case kArr:
			sig[i] = sigArg{mode: 'A'}
			moves = append(moves, argMove{mode: amValArr, a: o.reg})
		case kDrv:
			sig[i] = sigArg{mode: 'D', dt: o.dt}
			moves = append(moves, argMove{mode: amValDrv, a: o.reg})
		}
	}
	callee := f.c.spec(t, sig)
	cs := f.c.addCall(&callSite{proc: callee, args: moves})
	var rd opnd
	switch callee.ret.kind {
	case kArr:
		rd = f.pickA(d)
		f.emit(instr{op: opCallFunV, a: cs, d: rd.reg})
	case kDrv:
		dreg := f.allocDOwn(callee.retDt)
		f.emit(instr{op: opCallFunD, a: cs, d: dreg})
		rd = opnd{kind: kDrv, ok: oDrv, reg: dreg, dt: callee.retDt}
	default:
		rd = f.pickS(d)
		f.emit(instr{op: opCallFunS, a: cs, d: rd.reg})
	}
	for _, o := range os {
		f.release(o)
	}
	return rd
}

// elemCall compiles the elemental broadcast: the callee is invoked per
// column on scalar views, operands read live per column like the
// walker's at(v, i).
func (f *pcomp) elemCall(t target, os []opnd, d dst) opnd {
	sig := make([]sigArg, len(t.sub.Args))
	for i := range sig {
		if i < len(os) {
			sig[i] = sigArg{mode: 'S'}
		} else {
			sig[i] = sigArg{mode: 'u'}
		}
	}
	callee := f.c.spec(t, sig)
	if callee.ret.kind == kDrv {
		for _, o := range os {
			f.release(o)
		}
		return f.emitErr("derived result in elemental broadcast")
	}
	var eargs []elemArg
	for i, o := range os {
		switch o.kind {
		case kScal:
			switch o.ok {
			case oConst:
				m := f.matS(o)
				os[i] = m
				eargs = append(eargs, elemArg{space: esTempS, a: m.reg})
			case oTempS, oVarS:
				eargs = append(eargs, elemArg{space: esTempS, a: o.reg})
			case oGlobS:
				eargs = append(eargs, elemArg{space: esGlobS, a: o.reg})
			case oPtrS:
				eargs = append(eargs, elemArg{space: esPtrS, a: o.reg})
			case oFieldS:
				eargs = append(eargs, elemArg{space: esFieldS, a: o.reg, b: o.f})
			}
		case kArr:
			eargs = append(eargs, elemArg{space: esArr, a: o.reg})
		case kDrv:
			eargs = append(eargs, elemArg{space: esDrvF, a: o.reg})
		}
	}
	cs := f.c.addCall(&callSite{proc: callee, elem: eargs})
	rd := f.tmpA() // accumulated per column; never written in place
	f.emit(instr{op: opCallElem, a: cs, d: rd.reg})
	for _, o := range os {
		f.release(o)
	}
	return rd
}

func (c *compiler) addCall(cs *callSite) int32 {
	c.prog.calls = append(c.prog.calls, cs)
	return int32(len(c.prog.calls) - 1)
}
