package bytecode

import (
	"slices"

	"github.com/climate-rca/rca/internal/fortran"
)

// The output slice. A run that takes no snapshots observes only its
// outfld Outputs, its lane errors and its Trace of proc entries, so an
// assignment whose value can reach none of them is dead weight: the
// paper's backward slice from the output variables, applied to
// execution. While compiling, every assignment records its instruction
// range, the storage cell it writes and the cells its right-hand side
// reads; everything else that reads a cell — outfld arguments, if
// conditions, do bounds, element indices, call arguments and function
// results — roots the slice. A flow-insensitive fixpoint over the whole
// program then marks the output-live cells: a root is live, and so is
// every cell an assignment to a live cell reads. Each proc's sliced
// stream is its code less the ranges of the assignments the rule in
// slice removes and less the binds nothing left names; the module
// state the sliced streams still bind is all a sliced VM holds.

// cell is one storage cell: a module-level scalar, array or derived
// variable (proc -1), or a frame register of one proc specialization.
type cell struct {
	proc  int32
	space vspace
	reg   int32
}

// cellOf returns a resolved variable's storage cell.
func (f *pcomp) cellOf(vs *vslot) cell {
	switch vs.space {
	case vsGScal, vsGArr, vsGDrv:
		return cell{proc: -1, space: vs.space, reg: vs.reg}
	}
	return cell{proc: int32(f.p.id), space: vs.space, reg: vs.reg}
}

// asgRec is one compiled assignment.
type asgRec struct {
	p          *proc
	start, end int32 // instruction range in p.code
	def        cell  // the cell the assignment writes, when hasDef
	hasDef     bool
	whole      bool   // def is written whole, not one element or field
	pinned     bool   // def is a dummy argument, so may alias a caller's cell
	reads      []cell // cells read for the value, not as index or argument
}

// noteRead records a read of c: a root outside an assignment or inside
// one of its element indices and call arguments, else a read of the
// assignment's value.
func (f *pcomp) noteRead(c cell) {
	if f.cur == nil || f.rootCtx > 0 {
		f.c.roots = append(f.c.roots, c)
		return
	}
	f.reads = append(f.reads, c)
}

// index compiles an element index, whose reads root the slice: the
// index decides whether the access faults.
func (f *pcomp) index(e fortran.Expr) opnd {
	f.rootCtx++
	o := f.expr(e)
	f.rootCtx--
	return o
}

// slice computes the output-live cells, every proc's sliced stream
// and the program's held state.
// An assignment is removed only when its left-hand side is a whole
// scalar or array cell that is not output-live and not a dummy
// argument, and its range runs only opcodes that cannot fail and have
// no effect beyond their registers (sliceSafe). A dummy argument's
// assignment may write a caller's cell, so its reads are live whatever
// the dummy's own liveness, its own cell aside: every write to a dummy
// is kept, so reading one keeps nothing more alive.
func (c *compiler) slice() {
	// The assignments to each cell, as a list threaded through next:
	// first[x] is 1 + the index of the first, next[i] 1 + the next's.
	first := make(map[cell]int32)
	next := make([]int32, len(c.asgs))
	work := c.roots // consumed
	for i, a := range c.asgs {
		if !a.hasDef {
			continue
		}
		next[i] = first[a.def]
		first[a.def] = int32(i) + 1
		if a.pinned {
			for _, r := range a.reads {
				if r != a.def {
					work = append(work, r)
				}
			}
		}
	}
	c.live = make(map[cell]bool)
	for len(work) > 0 {
		x := work[len(work)-1]
		work = work[:len(work)-1]
		if c.live[x] {
			continue
		}
		c.live[x] = true
		for i := first[x]; i > 0; i = next[i-1] {
			work = append(work, c.asgs[i-1].reads...)
		}
	}
	for _, a := range c.asgs {
		if c.removable(a) {
			a.p.cut = append(a.p.cut, [2]int32{a.start, a.end})
		}
	}
	for _, p := range c.prog.procs {
		p.sliced = sliceStream(p, c.prog.calls)
		p.slicedEmpty = skippable(p)
	}
	c.prog.held = heldState(c.prog)
}

// removable applies the removal rule to one assignment.
func (c *compiler) removable(a *asgRec) bool {
	if !a.hasDef || !a.whole || a.pinned || c.live[a.def] || a.start == a.end {
		return false
	}
	for _, in := range a.p.code[a.start:a.end] {
		if !sliceSafe(in.op) {
			return false
		}
	}
	return true
}

// sliceSafe reports whether an opcode inside an assignment can neither
// fail nor act beyond the frame's registers and the assignment's own
// left-hand side: no opErr, no bounds-checked index or element store,
// no call, no PRNG draw, no store through a pointer or derived field.
// opTouch only feeds snapshots, which a sliced run never takes.
func sliceSafe(op opcode) bool {
	switch op {
	case opNop, opJmp, opBrNoFMA, opConst, opMovS, opLoadG, opStoreG,
		opLoadP, opLoadDF, opLoadDF0, opBindG, opBindGD, opBindDF,
		opBroadV, opCopyV, opCollapse, opSumV, opNcol, opShiftV, opTouch:
		return true
	}
	return op >= opAddS && op <= opLinV
}

// isJump reports whether an opcode's b operand is a jump target.
func isJump(op opcode) bool {
	switch op {
	case opJmp, opJZ, opBrNoFMA, opLoopCond, opLoopInc:
		return true
	}
	return false
}

// isBind reports whether an opcode binds an array or derived register
// to existing storage.
func isBind(op opcode) bool {
	return op == opBindG || op == opBindGD || op == opBindDF
}

// sliceStream returns p's sliced stream: its code less the cut ranges
// and less every bind whose destination register no remaining
// instruction reads or writes, in one cutCode pass.
func sliceStream(p *proc, calls []*callSite) []instr {
	keep := make([]bool, len(p.code))
	for i := range keep {
		keep[i] = true
	}
	for _, r := range p.cut {
		for i := r[0]; i < r[1]; i++ {
			keep[i] = false
		}
	}
	// The array (A) and derived (D) registers that the kept
	// instructions other than binds name. A function's result register
	// is a frame variable, which no bind targets.
	useA := make([]bool, p.nArr)
	useD := make([]bool, p.nDrv)
	use := func(file byte, r int32) {
		if file == 'A' {
			useA[r] = true
		} else {
			useD[r] = true
		}
	}
	for i, in := range p.code {
		if keep[i] && !isBind(in.op) {
			regsOf(in, calls, use)
		}
	}
	// A field bind is live when its array register is used, and then
	// uses its derived register; a global bind is live when its
	// register is used.
	for i, in := range p.code {
		if keep[i] && in.op == opBindDF {
			if keep[i] = useA[in.d]; keep[i] {
				use('D', in.a)
			}
		}
	}
	for i, in := range p.code {
		switch {
		case !keep[i]:
		case in.op == opBindG:
			keep[i] = useA[in.d]
		case in.op == opBindGD:
			keep[i] = useD[in.d]
		}
	}
	return cutCode(p.code, keep)
}

// regsOf calls use with every array ('A') and derived ('D') register
// an instruction other than a bind reads or writes, its call site's
// operands included. It panics on an opcode it does not know, so a new
// opcode cannot drop a bind its operands need.
func regsOf(in instr, calls []*callSite, use func(file byte, r int32)) {
	switch op := in.op; {
	case op == opAnyV, op == opIdx, op == opLoadElem, op == opStoreElem,
		op == opCollapse, op == opSumV:
		use('A', in.a)
	case op == opOutV:
		use('A', in.b)
	case op == opLoadDF, op == opLoadDF0:
		use('D', in.a)
	case op == opStoreDF, op == opStoreDF0:
		use('D', in.d)
	case op == opBroadV, op == opRandV:
		use('A', in.d)
	case op == opCopyV, op == opShiftV, op >= opNegV && op <= opFloorV:
		use('A', in.d)
		use('A', in.a)
	case op >= opAddV && op <= opMaxV:
		use('A', in.d)
		if in.e != 2 && in.e != 4 {
			use('A', in.a)
		}
		if in.e != 1 && in.e != 3 {
			use('A', in.b)
		}
	case op == opFMAV:
		use('A', in.d)
		for k, r := range [3]int32{in.a, in.b, in.c} {
			if in.e&(4<<k) != 0 {
				use('A', r)
			}
		}
	case op == opLinV:
		use('A', in.d)
		use('A', in.a)
		use('A', in.c)
	case op >= opCallSub && op <= opCallElem:
		switch op {
		case opCallFunV, opCallElem:
			use('A', in.d)
		case opCallFunD:
			use('D', in.d)
		}
		cs := calls[in.a]
		for _, mv := range cs.args {
			switch mv.mode {
			case amRefArr, amValArr:
				use('A', mv.a)
			case amRefDrv, amValDrv, amRefScalDF, amValScalDF:
				use('D', mv.a)
			}
		}
		for _, ea := range cs.elem {
			switch ea.space {
			case esArr:
				use('A', ea.a)
			case esFieldS, esDrvF:
				use('D', ea.a)
			}
		}
	case op <= opBrNoFMA, op >= opConst && op <= opStoreP,
		op >= opAddS && op <= opFMAS, op == opNcol, op == opRandS,
		op == opOutS, op == opTouch, op >= opLoopInit && op <= opLoopInc:
		// scalar, pointer, integer and control operands only
	default:
		panic(errf("regsOf: unknown opcode %d", in.op))
	}
}

// cutCode returns the instructions of code that keep marks, with every
// jump target moved to the instruction it lands on afterwards: a
// target at a dropped instruction lands on the first kept one after
// it. Targets must lie in [0, len(code)]. With everything kept it
// returns code itself.
func cutCode(code []instr, keep []bool) []instr {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	if n == len(code) {
		return code
	}
	at := make([]int32, len(code)+1)
	out := make([]instr, 0, n)
	for i := range code {
		at[i] = int32(len(out))
		if keep[i] {
			out = append(out, code[i])
		}
	}
	at[len(code)] = int32(len(out))
	for i := range out {
		if isJump(out[i].op) {
			out[i].b = at[out[i].b]
		}
	}
	return out
}

// skippable reports whether a run of the output slice without Trace
// may skip a call of p (below the depth limit): its sliced stream binds
// registers at most before it returns — its first instruction that is
// not a bind is opRet, or it has none — and, for a function, its
// result is a scalar frame register that no argument binds, which
// reads 0 in a fresh frame. Binding the arguments cannot fail: a
// faulting element index is the caller's own instruction and stays in
// its stream.
func skippable(p *proc) bool {
	for _, in := range p.sliced {
		if !isBind(in.op) {
			if in.op != opRet {
				return false
			}
			break
		}
	}
	if !p.isFunc {
		return true
	}
	if p.ret.kind != kScal || p.ret.space != ssScal {
		return false
	}
	for _, a := range p.argBind {
		if a.mode == 'S' && a.reg == p.ret.reg {
			return false
		}
	}
	return true
}

// heldState returns the module arrays and derived cells that the
// sliced streams bind, in increasing order: no other module array or
// derived cell can be read or written by a run of the output slice.
func heldState(p *Program) heldSet {
	var h heldSet
	for _, pr := range p.procs {
		for _, in := range pr.sliced {
			switch in.op {
			case opBindG:
				h.arr = append(h.arr, in.a)
			case opBindGD:
				h.drv = append(h.drv, in.a)
			}
		}
	}
	slices.Sort(h.arr)
	slices.Sort(h.drv)
	return heldSet{slices.Compact(h.arr), slices.Compact(h.drv)}
}
