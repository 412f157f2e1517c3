package bytecode

import "github.com/climate-rca/rca/internal/fortran"

func (f *pcomp) stmts(body []fortran.Stmt) {
	for _, s := range body {
		f.stmt(s)
	}
}

func (f *pcomp) stmt(s fortran.Stmt) {
	switch x := s.(type) {
	case *fortran.AssignStmt:
		f.assign(x)
	case *fortran.CallStmt:
		f.callStmt(x)
	case *fortran.ReturnStmt:
		f.emit(instr{op: opRet})
	case *fortran.IfStmt:
		f.ifStmt(x)
	case *fortran.DoStmt:
		f.doStmt(x)
	default:
		f.emitErr("unknown statement %T", s)
	}
}

func (f *pcomp) ifStmt(x *fortran.IfStmt) {
	co := f.expr(x.Cond)
	switch co.kind {
	case kErr:
		return
	case kDrv:
		// truthy(derived) is false in the walker: else branch always.
		f.release(co)
		f.stmts(x.Else)
		return
	case kArr:
		t := f.allocS()
		f.emit(instr{op: opAnyV, d: t, a: co.reg})
		f.release(co)
		co = opnd{kind: kScal, ok: oTempS, reg: t, sTmp: true}
	default:
		co = f.matS(co)
	}
	j := f.emit(instr{op: opJZ, a: co.reg})
	f.release(co)
	f.stmts(x.Then)
	if len(x.Else) > 0 {
		jend := f.emit(instr{op: opJmp})
		f.code[j].b = int32(len(f.code))
		f.stmts(x.Else)
		f.code[jend].b = int32(len(f.code))
		return
	}
	f.code[j].b = int32(len(f.code))
}

// storeScal writes an S register into a scalar cell.
func (f *pcomp) storeScal(cr cellRef, src int32) {
	if cr.isField {
		f.emit(instr{op: opStoreDF, d: cr.dreg, b: cr.fslot, a: src})
		return
	}
	switch cr.space {
	case vsScal:
		if cr.reg != src {
			f.emit(instr{op: opMovS, d: cr.reg, a: src})
		}
	case vsPtr:
		f.emit(instr{op: opStoreP, d: cr.reg, a: src})
	case vsGScal:
		f.emit(instr{op: opStoreG, d: cr.reg, a: src})
	}
}

// assign compiles one assignment and records its instruction range,
// the cell it writes and the cells it reads for the output slice.
// Assignments do not nest, so the record stays the last of f.asgs, and
// its reads the tail of f.reads, while it is compiled.
func (f *pcomp) assign(a *fortran.AssignStmt) {
	f.asgs = append(f.asgs, asgRec{start: int32(len(f.code))})
	rec, lo := &f.asgs[len(f.asgs)-1], len(f.reads)
	f.cur = rec
	f.lowerAssign(a, rec)
	f.cur = nil
	rec.end = int32(len(f.code))
	rec.reads = f.reads[lo:len(f.reads):len(f.reads)]
}

func (f *pcomp) lowerAssign(a *fortran.AssignStmt, rec *asgRec) {
	cr := f.walkRef(a.LHS)
	if cr.bad {
		return
	}
	rec.def, rec.hasDef, rec.pinned = cr.at, true, cr.dummy
	rec.whole = !cr.isField && (cr.kind == kScal || cr.kind == kArr)
	if a.LHS.HasParens && cr.kind == kArr && len(a.LHS.Args) == 1 {
		ik, _ := f.kindOf(a.LHS.Args[0])
		switch ik {
		case kErr:
			f.expr(a.LHS.Args[0])
			return
		case kScal:
			rec.whole = false
			io := f.index(a.LHS.Args[0])
			im := f.matS(io)
			ao := f.arrOpnd(cr)
			ireg := f.allocI()
			f.emit(instr{op: opIdx, d: ireg, a: ao.reg, b: im.reg, e: f.c.str(a.LHS.Name)})
			f.release(im)
			ro := f.expr(a.RHS)
			switch ro.kind {
			case kErr:
				f.freeIReg(ireg)
				f.release(ao)
				return
			case kDrv:
				f.release(ro)
				f.emitErr("derived value used as scalar")
			case kArr:
				t := f.allocS()
				f.emit(instr{op: opCollapse, d: t, a: ro.reg})
				f.release(ro)
				f.emit(instr{op: opStoreElem, a: ao.reg, b: ireg, c: t})
				f.freeSReg(t)
			default:
				rm := f.matS(ro)
				f.emit(instr{op: opStoreElem, a: ao.reg, b: ireg, c: rm.reg})
				f.release(rm)
			}
			f.freeIReg(ireg)
			f.release(ao)
			return
		default:
			// Array/derived index: evaluated and discarded; whole-cell
			// assignment follows.
			io := f.expr(a.LHS.Args[0])
			f.release(io)
		}
	}
	f.wholeAssign(cr, a.RHS)
}

func (f *pcomp) wholeAssign(cr cellRef, rhs fortran.Expr) {
	switch cr.kind {
	case kScal:
		var d dst
		if !cr.isField && cr.space == vsScal {
			d = dst{ok: true, kind: kScal, reg: cr.reg}
		}
		ro := f.exprD(rhs, d)
		switch ro.kind {
		case kErr:
			return
		case kDrv:
			f.release(ro)
			f.emitErr("derived value used as scalar")
		case kArr:
			t := f.allocS()
			f.emit(instr{op: opCollapse, d: t, a: ro.reg})
			f.release(ro)
			f.storeScal(cr, t)
			f.freeSReg(t)
		default:
			if d.ok && ro.ok == oVarS && ro.reg == d.reg {
				return // written in place
			}
			if d.ok && ro.ok == oConst {
				f.emit(instr{op: opConst, d: d.reg, a: ro.cidx})
				return
			}
			rm := f.matS(ro)
			f.storeScal(cr, rm.reg)
			f.release(rm)
		}
	case kArr:
		ao := f.arrOpnd(cr)
		ro := f.exprD(rhs, dst{ok: true, kind: kArr, reg: ao.reg})
		switch ro.kind {
		case kErr:
			f.release(ao)
			return
		case kScal:
			rm := f.matS(ro)
			f.emit(instr{op: opBroadV, d: ao.reg, a: rm.reg})
			f.release(rm)
		case kArr:
			if ro.reg != ao.reg {
				f.emit(instr{op: opCopyV, d: ao.reg, a: ro.reg})
			}
			f.release(ro)
		case kDrv:
			f.release(ro) // assignInto array ← derived is a no-op
		}
		f.release(ao)
	case kDrv:
		ro := f.expr(rhs)
		if ro.kind == kDrv {
			f.copyDerived(cr, ro)
		}
		f.release(ro)
	}
}

// copyDerived compiles the field-by-field assignInto of one derived
// value into another, matching fields by name. The phantom .f is left
// untouched, as the walker leaves Value.F.
func (f *pcomp) copyDerived(cr cellRef, src opnd) {
	dstReg := f.drvReg(&vslot{kind: kDrv, space: cr.space, reg: cr.reg, dt: cr.dt})
	for _, sf := range src.dt.fields {
		di, ok := cr.dt.fidx[sf.name]
		if !ok {
			continue
		}
		df := cr.dt.fields[di]
		switch {
		case !sf.arr && !df.arr:
			t := f.allocS()
			f.emit(instr{op: opLoadDF, d: t, a: src.reg, b: sf.slot})
			f.emit(instr{op: opStoreDF, d: dstReg, b: df.slot, a: t})
			f.freeSReg(t)
		case sf.arr && df.arr:
			sa := f.allocAAlias()
			da := f.allocAAlias()
			f.emit(instr{op: opBindDF, d: sa, a: src.reg, b: sf.slot})
			f.emit(instr{op: opBindDF, d: da, a: dstReg, b: df.slot})
			f.emit(instr{op: opCopyV, d: da, a: sa})
			f.freeAAliasReg(sa)
			f.freeAAliasReg(da)
		case sf.arr && !df.arr: // scalar ← array collapses to element 0
			sa := f.allocAAlias()
			f.emit(instr{op: opBindDF, d: sa, a: src.reg, b: sf.slot})
			t := f.allocS()
			f.emit(instr{op: opCollapse, d: t, a: sa})
			f.emit(instr{op: opStoreDF, d: dstReg, b: df.slot, a: t})
			f.freeSReg(t)
			f.freeAAliasReg(sa)
		default: // array ← scalar broadcasts
			t := f.allocS()
			f.emit(instr{op: opLoadDF, d: t, a: src.reg, b: sf.slot})
			da := f.allocAAlias()
			f.emit(instr{op: opBindDF, d: da, a: dstReg, b: df.slot})
			f.emit(instr{op: opBroadV, d: da, a: t})
			f.freeSReg(t)
			f.freeAAliasReg(da)
		}
	}
}

func (f *pcomp) doStmt(x *fortran.DoStmt) {
	fo := f.expr(x.From)
	if fo.kind == kErr {
		return
	}
	to := f.expr(x.To)
	if to.kind == kErr {
		f.release(fo)
		return
	}
	bound := func(o opnd) (opnd, bool) {
		switch o.kind {
		case kArr:
			t := f.allocS()
			f.emit(instr{op: opCollapse, d: t, a: o.reg})
			f.release(o)
			return opnd{kind: kScal, ok: oTempS, reg: t, sTmp: true}, true
		case kDrv:
			f.release(o)
			f.emitErr("derived value used as loop bound")
			return opnd{}, false
		}
		return o, true
	}
	// Both bounds evaluate fully before either is read as a scalar.
	fb, ok := bound(fo)
	if !ok {
		f.release(to)
		return
	}
	tb, ok := bound(to)
	if !ok {
		f.release(fb)
		return
	}
	fm := f.matS(fb)
	tm := f.matS(tb)
	vs := f.resolveVar(x.Var) // created (and touched) after bound evals
	ip := f.allocI2()
	f.emit(instr{op: opLoopInit, d: ip, a: fm.reg, b: tm.reg})
	f.release(fm)
	f.release(tm)
	ctr := f.allocS()
	head := len(f.code)
	cond := f.emit(instr{op: opLoopCond, d: ctr, a: ip})
	switch vs.kind {
	case kScal:
		cr := cellRef{kind: kScal, space: vs.space, reg: vs.reg}
		f.storeScal(cr, ctr)
	case kDrv:
		f.emit(instr{op: opStoreDF0, d: f.drvReg(vs), a: ctr})
		// Arrays: the walker writes the invisible Value.F; no-op here.
	}
	f.stmts(x.Body)
	f.emit(instr{op: opLoopInc, a: ip, b: int32(head)})
	f.code[cond].b = int32(len(f.code))
	f.freeSReg(ctr)
}

func (f *pcomp) callStmt(cst *fortran.CallStmt) {
	switch cst.Name {
	case "outfld":
		if len(cst.Args) != 2 {
			f.emitErr("outfld wants 2 args")
			return
		}
		lbl, ok := cst.Args[0].(*fortran.StrLit)
		if !ok {
			f.emitErr("outfld label must be a literal")
			return
		}
		vo := f.expr(cst.Args[1])
		switch vo.kind {
		case kErr:
			return
		case kArr:
			f.emit(instr{op: opOutV, a: f.c.str(lbl.Value), b: vo.reg})
			f.release(vo)
		case kScal:
			vm := f.matS(vo)
			f.emit(instr{op: opOutS, a: f.c.str(lbl.Value), b: vm.reg})
			f.release(vm)
		case kDrv:
			f.release(vo)
			f.emitErr("outfld of derived value")
		}
		return
	case "random_number":
		if len(cst.Args) != 1 {
			f.emitErr("random_number wants 1 arg")
			return
		}
		ref, ok := cst.Args[0].(*fortran.Ref)
		if !ok {
			f.emitErr("random_number needs a variable")
			return
		}
		cr := f.walkRef(ref)
		if cr.bad {
			return
		}
		if ref.HasParens && cr.kind == kArr && len(ref.Args) == 1 {
			ik, _ := f.kindOf(ref.Args[0])
			switch ik {
			case kErr:
				f.expr(ref.Args[0])
				return
			case kScal:
				io := f.expr(ref.Args[0])
				im := f.matS(io)
				ao := f.arrOpnd(cr)
				ireg := f.allocI()
				f.emit(instr{op: opIdx, d: ireg, a: ao.reg, b: im.reg, e: f.c.str(ref.Name)})
				f.release(im)
				t := f.allocS()
				f.emit(instr{op: opRandS, d: t})
				f.emit(instr{op: opStoreElem, a: ao.reg, b: ireg, c: t})
				f.freeSReg(t)
				f.freeIReg(ireg)
				f.release(ao)
				return
			default:
				io := f.expr(ref.Args[0])
				f.release(io)
			}
		}
		switch cr.kind {
		case kArr:
			ao := f.arrOpnd(cr)
			f.emit(instr{op: opRandV, d: ao.reg})
			f.release(ao)
		case kScal:
			t := f.allocS()
			f.emit(instr{op: opRandS, d: t})
			f.storeScal(cr, t)
			f.freeSReg(t)
		case kDrv:
			dreg := f.drvReg(&vslot{kind: kDrv, space: cr.space, reg: cr.reg, dt: cr.dt})
			t := f.allocS()
			f.emit(instr{op: opRandS, d: t})
			f.emit(instr{op: opStoreDF0, d: dreg, a: t})
			f.freeSReg(t)
		}
		return
	}
	targets := f.l.subs[f.t.module+"::"+cst.Name]
	if len(targets) == 0 {
		f.emitErr("no subroutine %q visible in %s", cst.Name, f.t.module)
		return
	}
	t := resolveOverload(targets, len(cst.Args))
	sig := make([]sigArg, len(t.sub.Args))
	for i := range sig {
		sig[i] = sigArg{mode: 'u'}
	}
	var moves []argMove
	var holds []opnd
	for i, ae := range cst.Args {
		sa, mv, hold, ok := f.subArg(ae)
		if !ok {
			for _, h := range holds {
				f.release(h)
			}
			return
		}
		holds = append(holds, hold...)
		if i < len(t.sub.Args) {
			sig[i] = sa
			moves = append(moves, mv)
		}
	}
	callee := f.c.spec(t, sig)
	cs := f.c.addCall(&callSite{proc: callee, args: moves})
	f.emit(instr{op: opCallSub, a: cs})
	for _, h := range holds {
		f.release(h)
	}
}

// subArg lowers one subroutine-call argument, mirroring execCall:
// whole references bind by reference, element views copy in, and a
// parenthesized non-array name falls back to expression evaluation —
// intrinsic or function first, else the cell itself by reference.
func (f *pcomp) subArg(ae fortran.Expr) (sigArg, argMove, []opnd, bool) {
	fail := func() (sigArg, argMove, []opnd, bool) { return sigArg{}, argMove{}, nil, false }
	fromOpnd := func(o opnd) (sigArg, argMove, []opnd, bool) {
		switch o.kind {
		case kErr:
			return fail()
		case kScal:
			m := f.matS(o)
			return sigArg{mode: 'S'}, argMove{mode: amValScalS, a: m.reg}, []opnd{m}, true
		case kArr:
			return sigArg{mode: 'a'}, argMove{mode: amRefArr, a: o.reg}, []opnd{o}, true
		default:
			return sigArg{mode: 'd', dt: o.dt}, argMove{mode: amRefDrv, a: o.reg}, []opnd{o}, true
		}
	}
	ref, isRef := ae.(*fortran.Ref)
	if !isRef {
		return fromOpnd(f.expr(ae))
	}
	cr := f.walkRef(ref)
	if cr.bad {
		return fail()
	}
	f.noteRead(cr.at)
	if ref.HasParens && cr.kind == kArr && len(ref.Args) == 1 {
		ik, _ := f.kindOf(ref.Args[0])
		switch ik {
		case kErr:
			f.expr(ref.Args[0])
			return fail()
		case kScal:
			// Element view: copy-in only.
			io := f.expr(ref.Args[0])
			im := f.matS(io)
			ao := f.arrOpnd(cr)
			ireg := f.allocI()
			f.emit(instr{op: opIdx, d: ireg, a: ao.reg, b: im.reg, e: f.c.str(ref.Name)})
			f.release(im)
			t := f.allocS()
			f.emit(instr{op: opLoadElem, d: t, a: ao.reg, b: ireg})
			f.freeIReg(ireg)
			f.release(ao)
			return sigArg{mode: 'S'}, argMove{mode: amValScalS, a: t},
				[]opnd{{kind: kScal, ok: oTempS, reg: t, sTmp: true}}, true
		default:
			io := f.expr(ref.Args[0])
			f.release(io)
			ao := f.arrOpnd(cr)
			return sigArg{mode: 'a'}, argMove{mode: amRefArr, a: ao.reg}, []opnd{ao}, true
		}
	}
	if ref.HasParens && cr.kind != kArr && len(ref.Components) == 0 {
		// The walker re-evaluates such arguments as expressions:
		// intrinsics and visible functions win; otherwise the (scalar
		// or derived) cell itself is passed by reference.
		if intrinsicNames[ref.Name] {
			return fromOpnd(f.intrinsic(ref, dst{}))
		}
		if ts := f.l.funcs[f.t.module+"::"+ref.Name]; len(ts) > 0 {
			return fromOpnd(f.callFunc(ts, ref.Args, dst{}))
		}
	}
	// Whole-cell by-reference binding.
	switch cr.kind {
	case kScal:
		if cr.isField {
			return sigArg{mode: 's'}, argMove{mode: amRefScalDF, a: cr.dreg, b: cr.fslot},
				[]opnd{{kind: kScal, ok: oFieldS, reg: cr.dreg, f: cr.fslot}}, true
		}
		switch cr.space {
		case vsScal:
			return sigArg{mode: 's'}, argMove{mode: amRefScalS, a: cr.reg}, nil, true
		case vsPtr:
			return sigArg{mode: 's'}, argMove{mode: amRefScalP, a: cr.reg}, nil, true
		default:
			return sigArg{mode: 's'}, argMove{mode: amRefScalG, a: cr.reg}, nil, true
		}
	case kArr:
		ao := f.arrOpnd(cr)
		return sigArg{mode: 'a'}, argMove{mode: amRefArr, a: ao.reg}, []opnd{ao}, true
	default:
		do := f.cellOpnd(cr)
		return sigArg{mode: 'd', dt: cr.dt}, argMove{mode: amRefDrv, a: do.reg}, []opnd{do}, true
	}
}
