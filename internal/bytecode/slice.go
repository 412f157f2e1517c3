package bytecode

import "github.com/climate-rca/rca/internal/fortran"

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
// slice removes.

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

// slice computes the output-live cells and every proc's sliced stream.
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
		p.sliced = cutCode(p.code, p.cut)
	}
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

// cutCode returns code less the sorted, disjoint ranges in cut, with
// every jump target moved to the instruction it lands on afterwards: a
// target at a removed range lands on the first instruction after it.
// Targets must lie in [0, len(code)]. With nothing to cut it returns
// code itself.
func cutCode(code []instr, cut [][2]int32) []instr {
	if len(cut) == 0 {
		return code
	}
	n := len(code)
	for _, c := range cut {
		n -= int(c[1] - c[0])
	}
	at := make([]int32, len(code)+1)
	out := make([]instr, 0, n)
	k := 0
	for i := range code {
		at[i] = int32(len(out))
		for k < len(cut) && int32(i) >= cut[k][1] {
			k++
		}
		if k < len(cut) && int32(i) >= cut[k][0] {
			continue
		}
		out = append(out, code[i])
	}
	at[len(code)] = int32(len(out))
	for i := range out {
		if isJump(out[i].op) {
			out[i].b = at[out[i].b]
		}
	}
	return out
}
