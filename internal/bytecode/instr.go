package bytecode

// The instruction set of the register VM. Each proc specialization
// compiles to a flat []instr over five frame register files — float64
// scalars (S), *float64 indirections for by-reference scalar arguments
// (P), []float64 array bindings (A), *dval derived bindings (D) and
// int64 loop/index registers (I) — plus the VM-level global cell
// stores. Opcodes are grouped by operand shape; the e operand carries
// shape/sign bits where one opcode covers several broadcast forms.
//
// The compiler's contract with the tree-walking oracle is *temporal*:
// a whole-variable reference is a live cell in the walker, read when
// the consuming operation executes, so loads from globals, pointers
// and derived fields are emitted immediately before their consumer —
// after every operand's side-effecting code — while element reads,
// intrinsic reductions and function results materialize eagerly, at
// the position the walker materializes its temporaries.
type opcode uint16

const (
	opNop opcode = iota

	// Control flow. Jump targets are absolute instruction indices.
	opJmp     // jmp b
	opJZ      // if scal[a] == 0: jmp b
	opAnyV    // scal[d] = 1 if any arr[a][i] != 0 else 0
	opRet     // return from proc
	opErr     // return prog.errs[a]
	opBrNoFMA // if !frame fma: jmp b

	// Moves and loads/stores.
	opConst     // scal[d] = consts[a]
	opMovS      // scal[d] = scal[a]
	opLoadG     // scal[d] = gscal[a]
	opStoreG    // gscal[d] = scal[a]
	opLoadP     // scal[d] = *ptrs[a]
	opStoreP    // *ptrs[d] = scal[a]
	opLoadDF    // scal[d] = drv[a].scal[b]
	opStoreDF   // drv[d].scal[b] = scal[a]
	opLoadDF0   // scal[d] = drv[a].f  (the derived cell's phantom scalar)
	opStoreDF0  // drv[d].f = scal[a]
	opBindG     // arr[d] = garr[a]
	opBindGD    // drv[d] = gdrv[a]
	opBindDF    // arr[d] = drv[a].arr[b]
	opIdx       // ints[d] = int(scal[b]) - 1, bounds-checked against arr[a]
	opLoadElem  // scal[d] = arr[a][ints[b]]
	opStoreElem // arr[a][ints[b]] = scal[c]
	opBroadV    // arr[d][i] = scal[a] for all i
	opCopyV     // copy(arr[d], arr[a])
	opCollapse  // scal[d] = arr[a][0]

	// Scalar arithmetic: scal[d] = scal[a] op scal[b].
	opAddS
	opSubS
	opMulS
	opDivS
	opPowS
	opEqS
	opNeS
	opLtS
	opLeS
	opGtS
	opGeS
	opAndS
	opOrS
	opModS
	opSignS
	opMinS
	opMaxS
	// Scalar unary: scal[d] = op scal[a].
	opNegS
	opNotS
	opAbsS
	opSqrtS
	opExpS
	opLogS
	opFloorS
	// scal[d] = FMA(±scal[a], scal[b], ±scal[c]); e bit0 negates a,
	// bit1 negates c.
	opFMAS

	// Array elementwise binary: arr[d][i] = x op y with e selecting the
	// broadcast shape — 0: arr[a] op arr[b]; 1: arr[a] op scal[b];
	// 2: scal[a] op arr[b]. Add, Sub, Mul and Div also take a literal
	// operand read from consts — 3: arr[a] op consts[b]; 4: consts[a]
	// op arr[b].
	opAddV
	opSubV
	opMulV
	opDivV
	opPowV
	opEqV
	opNeV
	opLtV
	opLeV
	opGtV
	opGeV
	opAndV
	opOrV
	opModV
	opSignV
	opMinV
	opMaxV
	// Array unary: arr[d][i] = op arr[a][i].
	opNegV
	opNotV
	opAbsV
	opSqrtV
	opExpV
	opLogV
	opFloorV
	// arr[d][i] = FMA(±x_i, y_i, ±z_i); e bit0 negates x, bit1 negates
	// z, bits 2..4 mark a/b/c as arrays, bits 5..7 as literals read
	// from consts (else scalar regs).
	opFMAV
	// arr[d][i] = float64(arr[a][i]*consts[b]) ± float64(arr[c][i]*k)
	// with k = consts[e>>1]; e bit0 selects minus: X*c1 ± Y*c2 without
	// FMA in one pass, each product rounded on its own.
	opLinV
	opSumV   // scal[d] = sum(arr[a])
	opNcol   // scal[d] = float64(ncol)
	opShiftV // arr[d][i] = arr[a][(i+k)%n], k = int(scal[b]) mod n, as two block copies

	// Experiment hooks.
	opRandS // scal[d] = rng.Float64()
	opRandV // arr[d][i] = rng.Float64() in index order
	opOutS  // Outputs[labels[a]] = []float64{scal[b]}
	opOutV  // Outputs[labels[a]] = copy of arr[b]
	opTouch // mark implicit local a as live for snapshots

	// Counted do loops: LoopInit loads int bounds into ints[d],
	// ints[d+1]; LoopCond exits to b when done, else deposits the
	// counter into scal[d]; LoopInc advances ints[a] and jumps to b.
	opLoopInit
	opLoopCond
	opLoopInc

	// Calls: a = call-site index. Fun variants copy the callee's result
	// into scal[d] / arr[d] / drv[d]; Elem broadcasts an elemental
	// function over the columns into arr[d].
	opCallSub
	opCallFunS
	opCallFunV
	opCallFunD
	opCallElem
)

// instr is one instruction. d is conventionally the destination.
type instr struct {
	op            opcode
	a, b, c, d, e int32
}
