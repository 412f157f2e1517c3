// Package bytecode compiles FortLite modules into a register-based
// bytecode program and executes it on one stack-of-frames VM, the
// BatchVM, which runs one or more members in lockstep. It is the
// production execution engine: semantic analysis resolves every
// variable, derived-type field and call target to an
// integer slot at compile time, scalars live unboxed in flat []float64
// register files, and column fields in preallocated flat arrays — so
// the hot path runs with no map lookups and no per-expression heap
// boxing.
//
// The tree-walking interpreter (internal/interp) remains the reference
// oracle: the compiler's hard requirement is bit-identical Outputs,
// Kernel and AllValues maps for every program both engines accept. The
// paper's verdicts hang on exact floating-point semantics — FMA fusion
// patterns, PRNG draw order, evaluation order — so the lowering
// preserves the walker's evaluation order exactly, including its
// corner cases (live whole-variable reads at consumption time, eager
// element and intrinsic materialization, per-module FMA selecting
// between two compiled operand orders). See DESIGN.md "Execution
// engine" for the ISA sketch and the determinism contract.
package bytecode

import (
	"fmt"
	"sync"

	"github.com/climate-rca/rca/internal/fortran"
)

// vkind classifies a value's static shape.
type vkind uint8

const (
	kScal vkind = iota
	kArr
	kDrv
	kErr // expression whose evaluation the walker rejects at runtime
)

// dtype is an interned derived-type layout: field order and shapes
// resolved at compile time so component access is slot arithmetic.
type dtype struct {
	id     int
	fields []dfield
	fidx   map[string]int // field name → index into fields
	nScal  int
	nArr   int
}

// dfield is one derived-type component.
type dfield struct {
	name string
	arr  bool
	slot int32 // index into bdval.scal or bdval.arr
}

// gref addresses one global (module-level) cell.
type gref struct {
	kind vkind
	idx  int32
	dt   *dtype
}

// target mirrors interp's procKeyTarget: a subprogram plus the module
// whose storage it executes against.
type target struct {
	module string
	sub    *fortran.Subprogram
}

// argMove describes how one caller operand binds to a callee arg slot.
type amode uint8

const (
	amNone      amode = iota // unbound (arity mismatch)
	amRefScalS               // pass &fr.scal[a]
	amRefScalG               // pass &vm.gscal[a]
	amRefScalP               // forward fr.ptrs[a]
	amRefScalDF              // pass &fr.drv[a].scal[b]
	amRefArr                 // pass fr.arr[a] (slice alias)
	amRefDrv                 // pass fr.drv[a]
	amValScalS               // copy scal value (read at call time)
	amValScalG
	amValScalP
	amValScalDF
	amValArr // copy contents of fr.arr[a] into callee-owned array
	amValDrv // deep-copy fr.drv[a] into callee-owned bdval
)

type argMove struct {
	mode amode
	a, b int32
}

// elemSpace addresses one elemental-broadcast operand, read live per
// column exactly as the walker's at(v, i) reads its cells.
type elemSpace uint8

const (
	esTempS  elemSpace = iota // fr.scal[a], fixed temp or live frame var
	esGlobS                   // vm.gscal[a]
	esPtrS                    // *fr.ptrs[a]
	esFieldS                  // fr.drv[a].scal[b]
	esDrvF                    // fr.drv[a].f
	esArr                     // fr.arr[a][i]
)

type elemArg struct {
	space elemSpace
	a, b  int32
}

// callSite is one resolved static call.
type callSite struct {
	proc *proc
	args []argMove // regular calls
	elem []elemArg // elemental broadcasts
}

// snapSpace addresses a snapshot source.
type snapSpace uint8

const (
	ssScal  snapSpace = iota // fr.scal[reg]
	ssPtr                    // *fr.ptrs[reg]
	ssArr                    // fr.arr[reg]
	ssDrvF                   // fr.drv[reg].scal[f] (scalar field)
	ssDrvA                   // fr.drv[reg].arr[f] (array field)
	ssGScal                  // vm.gscal[reg]
	ssGArr                   // vm.garr[reg]
	ssGDrvF                  // vm.gdrv[reg].scal[f]
	ssGDrvA                  // vm.gdrv[reg].arr[f]
)

// snapEntry records one variable (or flattened derived component) for
// the KernelWatch / SnapshotAll / module-level snapshots.
type snapEntry struct {
	name        string // frame: variable name (Kernel map key)
	key         string // AllValues key (prefix applied at build time)
	space       snapSpace
	reg, f      int32
	fromDerived bool  // KernelWatch skips derived components
	touch       int32 // implicit-local liveness bit, -1 if always live
}

// retLoc locates a function's result variable in its frame.
type retLoc struct {
	kind  vkind
	space snapSpace // ssScal / ssPtr / ssArr / ssDrvF... reuse addressing
	reg   int32
}

// proc is one compiled subprogram specialization.
type proc struct {
	id       int
	module   string
	modIdx   int32
	name     string
	fullName string // module::name, the Trace/KernelWatch identity
	isFunc   bool

	code []instr
	// sliced is code less every assignment no output depends on and
	// every bind no remaining instruction names, the stream a run
	// without snapshots executes; cut lists the removed assignments'
	// [start, end) ranges of code. It is code itself when nothing is
	// removed. slicedEmpty marks a sliced stream that only binds and
	// returns, whose call a run without Trace skips. See slice.go.
	sliced      []instr
	cut         [][2]int32
	slicedEmpty bool

	nScal, nPtr, nArr, nDrv, nInt, nTouch int

	// ownArr lists frame-owned (arena-backed) array registers; zeroArr
	// marks the subset that must be zeroed per activation (declared
	// local arrays — scratch temporaries are always written before
	// read and by-value arguments are overwritten at bind); ownDrv
	// lists frame-owned derived registers with their layouts.
	ownArr  []int32
	zeroArr []int32
	ownDrv  []struct {
		reg int32
		dt  *dtype
	}

	// argBind maps positional arguments onto frame slots.
	argBind []argSlot

	ret   retLoc
	retDt *dtype
	snap  []snapEntry
}

// argSlot is where a callee binds argument i.
type argSlot struct {
	mode byte // 'u' unbound, 's' ptr, 'S' scal, 'a'/'A' arr, 'd'/'D' drv
	reg  int32
}

// cellInit starts global cell idx (scalar or array) at val.
type cellInit struct {
	idx int32
	val float64
}

// heldSet lists global array cells (arr) and derived cells (drv) by
// index, in increasing order.
type heldSet struct {
	arr, drv []int32
}

// moduleSnap is the SnapshotModuleVars metadata for one module.
type moduleSnap struct {
	entries []snapEntry
}

// Program is an immutable compiled FortLite program, safe for
// concurrent NewBatchVM use. It is the Session's cached build artifact:
// model.Runner compiles it once per source fingerprint and every
// integration runs it on a BatchVM lane.
type Program struct {
	modules   []string
	moduleIdx map[string]int

	nGScal int
	nGArr  int
	gdrvs  []*dtype // layout per global derived cell

	// Module-level initialization resolved at compile time. With the
	// literal-site prefix of consts it is the only state that depends
	// on values rather than shape, and so the only state Rebind
	// recomputes.
	scalInit []cellInit
	arrInit  []cellInit

	// cells is the cell linker phase 3 allocated to every module-level
	// declared name, initialized or not, in declaration order (module,
	// declaration, name). Allocation depends on the shape alone, so
	// every Rebind copy shares the table and Rebind reads each name's
	// cell from it.
	cells []gref

	// consts[:nLits] holds one slot per statement literal site, in the
	// order of the modules' Lits lists; the deduplicated constants the
	// compiler folds (local initializers, string placeholders) follow.
	consts []float64
	nLits  int
	labels []string
	errs   []error
	calls  []*callSite
	procs  []*proc

	// entries maps "module::name" to the zero-argument specialization
	// the driver's Call resolves to.
	entries map[string]*proc

	// moduleVars resolves ModuleArray lookups: module → name → gref.
	moduleVars map[string]map[string]gref

	snapModules []moduleSnap

	// held is the module state the sliced streams bind; a VM that
	// runs the output slice holds storage for it alone.
	held heldSet

	// initErr is the construction failure the tree walker's NewMachine
	// would report (duplicate modules, bad module-level initializers,
	// unknown derived types); NewBatchVM returns it.
	initErr error

	// batchVMs holds released BatchVMs, frames included, for NewBatchVM
	// to reset in place: one *sync.Pool per batchSize, created on first
	// use. Every Rebind copy shares it: copies share procs, register
	// layout and held state, so a VM fits every program of the shape.
	batchVMs *sync.Map
}

// Errors returns program construction state — nil when the program is
// runnable.
func (p *Program) Err() error { return p.initErr }

func errf(format string, args ...interface{}) error {
	return fmt.Errorf("bytecode: "+format, args...)
}
