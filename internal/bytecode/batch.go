package bytecode

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// maxDepth bounds the call depth, as the tree walker's does.
const maxDepth = 200

// BatchVM runs N ensemble members ("lanes") in lockstep over one
// compiled program: one instruction decode is amortized across the
// batch, and every register file is struct-of-arrays — scalar register
// r, lane l lives at the flat index r*nl+l, while array registers are
// lane-major: lane l's columns form the contiguous block
// [l*ncol, (l+1)*ncol), so every elementwise vector opcode runs one
// tight loop per lane, shaped like a single member's, with its lane
// scalars hoisted into registers, for any group shape.
//
// Divergence is handled by group splitting: execution always acts on a
// sorted group of live lanes, and a conditional whose lanes disagree
// partitions the group — the taken subset runs the branch target to
// the end of the proc recursively while the fall-through subset
// continues in place, rejoining only in the caller. A lane that raises
// a runtime error retires from its group with the error recorded
// (sticky, per lane) and its registers frozen, exactly as the tree
// walker aborts that member's run. Per-lane PRNG sources and per-lane
// capture maps keep every lane bit-identical to a tree-walker run of
// the same member; see DESIGN.md "Batched execution". A one-lane VM is
// how a single integration runs.
type BatchVM struct {
	prog        *Program
	ncol        int
	nl          int
	rngs        []rng.Source
	trace       func(module, subprogram string) // one-lane VMs only
	kernelWatch string
	snapshotAll bool
	fma         []bool
	// powBase is the prelude of the last literal base a ** kernel ran
	// with: both of goff_gratch's sites raise 10.0, so each kernel
	// invocation reuses it instead of recomputing Log and Frexp. It
	// depends on the base's value alone (the zero value is the prelude
	// of +0), so a Rebind copy's VM can keep it.
	powBase powLitBase
	// sliced VMs run each proc's sliced stream and take no snapshot;
	// they hold storage only for the program's held state, and every
	// other garr and gdrv slot is nil. Fixed at allocation: sliced and
	// full VMs are pooled apart.
	sliced    bool
	skipEmpty bool // sliced and untraced: calls of slicedEmpty procs are skipped

	gscal   []float64
	garr    [][]float64 // slices of backing
	gdrv    []*bdval
	backing []float64

	results []interp.Results
	// outs[l*len(prog.labels)+k] is the slice lane l's Outputs holds
	// under label k, once the lane has written it since the last reset
	// or DetachLaneResults: outfld writes through it without a map
	// lookup.
	outs [][]float64
	errs []error
	live []int // CallAll's group of live lanes, reused per call

	depth int
	free  [][]*bframe // released frames per proc id
	pool  *sync.Pool  // the shape's pool for this VM's size; Release returns it there
}

// bdval is a runtime derived-type instance across the lanes: the
// phantom scalar f (the tree walker's Value.F on derived values,
// written by random_number, read by at()) and the scalar fields are
// per-lane (slot-striped); array fields are lane-major like every
// other array register.
type bdval struct {
	t    *dtype
	f    []float64   // phantom scalar, one per lane
	scal []float64   // scalar fields, slot s lane l at s*nl+l
	arr  [][]float64 // array fields, each ncol*nl lane-major
}

func newBdval(t *dtype, ncol, nl int) *bdval {
	d := &bdval{t: t, f: make([]float64, nl)}
	if t.nScal > 0 {
		d.scal = make([]float64, t.nScal*nl)
	}
	if t.nArr > 0 {
		d.arr = make([][]float64, t.nArr)
		sz := ncol * nl
		backing := make([]float64, t.nArr*sz)
		for i := 0; i < t.nArr; i++ {
			d.arr[i] = backing[i*sz : (i+1)*sz]
		}
	}
	return d
}

func (d *bdval) reset() {
	for i := range d.f {
		d.f[i] = 0
	}
	for i := range d.scal {
		d.scal[i] = 0
	}
	for _, a := range d.arr {
		for i := range a {
			a[i] = 0
		}
	}
}

// bframe is one batched activation record. Pointer registers become
// lane windows: a by-reference scalar argument binds the contiguous
// nl-float window of the referenced cell, so *ptr reads/writes are
// ptr[l] per lane.
type bframe struct {
	ncol    int
	nl      int
	scal    []float64
	ptrs    [][]float64
	arr     [][]float64
	drv     []*bdval
	ints    []int64
	touched []bool
	arena   []float64
	zero    [][]float64
	ownD    []*bdval
}

func newBframe(p *proc, ncol, nl int) *bframe {
	fr := &bframe{
		ncol:    ncol,
		nl:      nl,
		scal:    make([]float64, p.nScal*nl),
		ptrs:    make([][]float64, p.nPtr),
		arr:     make([][]float64, p.nArr),
		drv:     make([]*bdval, p.nDrv),
		ints:    make([]int64, p.nInt*nl),
		touched: make([]bool, p.nTouch*nl),
		arena:   make([]float64, len(p.ownArr)*ncol*nl),
	}
	sz := ncol * nl
	for i, reg := range p.ownArr {
		fr.arr[reg] = fr.arena[i*sz : (i+1)*sz]
	}
	for _, reg := range p.zeroArr {
		fr.zero = append(fr.zero, fr.arr[reg])
	}
	for _, od := range p.ownDrv {
		d := newBdval(od.dt, ncol, nl)
		fr.drv[od.reg] = d
		fr.ownD = append(fr.ownD, d)
	}
	return fr
}

func (fr *bframe) reset() {
	for i := range fr.scal {
		fr.scal[i] = 0
	}
	for _, a := range fr.zero {
		for i := range a {
			a[i] = 0
		}
	}
	for i := range fr.touched {
		fr.touched[i] = false
	}
	for _, d := range fr.ownD {
		d.reset()
	}
}

// NewBatchVM instantiates the program with len(rngs) lanes, one
// independent PRNG source per lane (each lane's draw order matches a
// tree-walker run on that source). It mirrors interp.NewMachine's
// defaults and construction failures. A VM whose config takes no
// snapshot (SnapshotAll false, KernelWatch empty) runs the program's
// output slice: its Outputs, lane errors and Trace are the full
// stream's, but it holds only the module arrays and derived cells the
// sliced streams bind, LaneArray refuses the others with ErrNotHeld,
// module variables no output depends on hold unspecified values, and
// SnapshotModuleVarsAll panics. Without Trace it also skips the calls
// of procs whose sliced stream only binds and returns. Trace fires at
// every proc entry, in the walker's order, and is accepted on one-lane
// VMs only: the lanes of a wider batch enter procs together, so no
// member's entry sequence could be told apart.
//
// A VM of the program's shape released with the same column count,
// batch width and stream (sliced or full) is reset in place instead of
// allocated: its register files are zeroed and the program's
// module-level initializers replayed, its capture maps cleared and its
// lane errors dropped, so it starts in exactly a fresh VM's state. Each
// size and stream has its own pool, so batches of different widths
// over one shape (an 8-lane chunk and the 2-lane remainder of a
// 10-member set) do not evict each other's VMs, and a sliced VM, which
// holds and clears only the held state, never runs the full stream.
func (p *Program) NewBatchVM(cfg interp.Config, rngs []rng.Source) (*BatchVM, error) {
	if p.initErr != nil {
		return nil, p.initErr
	}
	nl := len(rngs)
	if nl < 1 {
		return nil, errf("batched execution needs at least one lane")
	}
	if cfg.Trace != nil && nl > 1 {
		return nil, errf("Trace needs a one-lane VM, not %d lanes", nl)
	}
	for i, src := range rngs {
		if src == nil {
			return nil, errf("batched execution: nil RNG for lane %d", i)
		}
	}
	ncol := cfg.Ncol
	if ncol <= 0 {
		ncol = 16
	}
	k := batchSize{ncol, nl, !cfg.SnapshotAll && cfg.KernelWatch == ""}
	pool := p.batchPool(k)
	vm, _ := pool.Get().(*BatchVM)
	if vm != nil {
		vm.reset()
	} else {
		vm = p.allocBatchVM(k)
		vm.pool = pool
	}
	vm.prog = p
	vm.rngs = rngs
	vm.trace = cfg.Trace
	vm.kernelWatch = cfg.KernelWatch
	vm.snapshotAll = cfg.SnapshotAll
	vm.skipEmpty = vm.sliced && cfg.Trace == nil
	vm.depth = 0
	for _, si := range p.scalInit {
		base := int(si.idx) * nl
		for l := 0; l < nl; l++ {
			vm.gscal[base+l] = si.val
		}
	}
	for _, ai := range p.arrInit {
		a := vm.garr[ai.idx] // nil, so skipped, when not held
		for i := range a {
			a[i] = ai.val
		}
	}
	for i, m := range p.modules {
		vm.fma[i] = cfg.FMA != nil && cfg.FMA(m)
	}
	return vm, nil
}

// batchSize keys a shape's released BatchVMs: only a VM of equal column
// count and batch width fits another run's register layout, and only a
// VM of the same stream holds the state the run may touch.
type batchSize struct {
	ncol, nl int
	sliced   bool
}

// batchPool returns the shape's pool of released VMs of one size,
// creating it on first use.
func (p *Program) batchPool(k batchSize) *sync.Pool {
	if v, ok := p.batchVMs.Load(k); ok {
		return v.(*sync.Pool)
	}
	v, _ := p.batchVMs.LoadOrStore(k, new(sync.Pool))
	return v.(*sync.Pool)
}

// allocBatchVM allocates a zeroed VM of the program's layout: with
// storage for every module array and derived cell, or for a sliced VM
// only the held ones.
func (p *Program) allocBatchVM(k batchSize) *BatchVM {
	ncol, nl := k.ncol, k.nl
	vm := &BatchVM{
		sliced:  k.sliced,
		ncol:    ncol,
		nl:      nl,
		gscal:   make([]float64, p.nGScal*nl),
		garr:    make([][]float64, p.nGArr),
		gdrv:    make([]*bdval, len(p.gdrvs)),
		results: make([]interp.Results, nl),
		outs:    make([][]float64, nl*len(p.labels)),
		errs:    make([]error, nl),
		live:    make([]int, 0, nl),
		fma:     make([]bool, len(p.modules)),
		free:    make([][]*bframe, len(p.procs)),
	}
	arrs, drvs := p.held.arr, p.held.drv
	if !k.sliced {
		arrs, drvs = allCells(p.nGArr), allCells(len(p.gdrvs))
	}
	sz := ncol * nl
	vm.backing = make([]float64, len(arrs)*sz)
	for i, g := range arrs {
		vm.garr[g] = vm.backing[i*sz : (i+1)*sz]
	}
	for _, g := range drvs {
		vm.gdrv[g] = newBdval(p.gdrvs[g], ncol, nl)
	}
	for l := range vm.results {
		vm.results[l] = interp.NewResults()
	}
	return vm
}

// allCells returns the indices 0..n-1.
func allCells(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// reset returns a released VM's state to allocBatchVM's: zeroed
// registers, empty capture maps, no lane errors. It clears only the
// state the VM holds, which for a sliced VM is the program's held
// state: a VM never changes stream, so a full VM holds and clears every
// module cell. Frames stay on the free lists; getFrame resets each
// before use.
func (vm *BatchVM) reset() {
	clear(vm.gscal)
	clear(vm.backing)
	for _, d := range vm.gdrv {
		if d != nil {
			d.reset()
		}
	}
	for l := range vm.results {
		clear(vm.results[l].Outputs)
		clear(vm.results[l].Kernel)
		clear(vm.results[l].AllValues)
	}
	clear(vm.outs)
	clear(vm.errs)
}

// Release hands the VM back to its program's shape for a later
// NewBatchVM to reuse. The VM, and every view it handed out
// (LaneResults, LaneErrs, LaneArray), must not be used afterwards.
func (vm *BatchVM) Release() {
	vm.rngs, vm.trace = nil, nil
	vm.pool.Put(vm)
}

// Lanes returns the batch width.
func (vm *BatchVM) Lanes() int { return vm.nl }

// Ncol returns the column count the batch was configured with.
func (vm *BatchVM) Ncol() int { return vm.ncol }

// LaneResults exposes one lane's capture maps, bit-identical to a
// tree-walker run of the same member. The maps are valid until
// Release.
func (vm *BatchVM) LaneResults(l int) *interp.Results { return &vm.results[l] }

// DetachLaneResults hands lane l's capture maps to the caller and gives
// the lane fresh empty ones, so the returned maps outlive Release and
// no later use of the VM can clear or overwrite them.
func (vm *BatchVM) DetachLaneResults(l int) interp.Results {
	r := vm.results[l]
	vm.results[l] = interp.NewResults()
	k := len(vm.prog.labels)
	clear(vm.outs[l*k : l*k+k])
	return r
}

// LaneErrs returns the per-lane sticky errors: once a lane errs, its
// registers freeze and subsequent CallAll invocations skip it. The
// slice is live — callers must not mutate it — and valid until
// Release.
func (vm *BatchVM) LaneErrs() []error { return vm.errs }

// liveLanes returns the sorted group of lanes with no sticky error in
// the VM's own buffer: exec never writes into a group it is handed, so
// the buffer is free again once CallAll returns.
func (vm *BatchVM) liveLanes() []int {
	g := vm.live[:0]
	for l := 0; l < vm.nl; l++ {
		if vm.errs[l] == nil {
			g = append(g, l)
		}
	}
	return g
}

// CallAll invokes a zero-argument entry subroutine on every live lane
// in lockstep and returns the per-lane sticky errors.
func (vm *BatchVM) CallAll(module, name string) []error {
	p, ok := vm.prog.entries[module+"::"+name]
	if !ok {
		err := errf("no subroutine %s in %s", name, module)
		for l := range vm.errs {
			if vm.errs[l] == nil {
				vm.errs[l] = err
			}
		}
		return vm.errs
	}
	g := vm.liveLanes()
	if len(g) == 0 {
		return vm.errs
	}
	if vm.depth >= maxDepth {
		err := errf("call depth exceeded at %s", p.fullName)
		for _, l := range g {
			vm.errs[l] = err
		}
		return vm.errs
	}
	vm.depth++
	if vm.trace != nil {
		vm.trace(p.module, p.name)
	}
	fr := vm.getFrame(p)
	vm.exec(p, fr, g, 0)
	vm.exitSnapshotsBatch(p, fr, g)
	vm.depth--
	vm.putFrame(p, fr)
	return vm.errs
}

// ErrNotHeld is LaneArray's refusal of a module array that a VM
// running the output slice does not hold: no instruction of the sliced
// streams reads or writes it, so neither would a write through it.
var ErrNotHeld = errors.New("bytecode: module array not held by a VM that runs the output slice")

// LaneArray resolves a module-level array variable to one lane's
// contiguous block view — the batched counterpart of
// Engine.ModuleArray, used by the model's per-member
// initial-condition perturbations. On a VM that runs the output slice
// it returns an error wrapping ErrNotHeld for an array the sliced
// streams do not bind.
func (vm *BatchVM) LaneArray(lane int, module string, path ...string) (interp.LaneSlice, error) {
	if len(path) == 0 || lane < 0 || lane >= vm.nl {
		return interp.LaneSlice{}, errf("no module array %s on lane %d", arrayName(module, path), lane)
	}
	g, ok := vm.prog.moduleVars[module][path[0]]
	rest := path[1:]
	var a []float64
	switch {
	case !ok:
	case g.kind == kArr && len(rest) == 0:
		if a = vm.garr[g.idx]; a == nil {
			return interp.LaneSlice{}, fmt.Errorf("%w: %s", ErrNotHeld, arrayName(module, path))
		}
	case g.kind == kDrv && len(rest) == 1:
		fi, ok := g.dt.fidx[rest[0]]
		if !ok || !g.dt.fields[fi].arr {
			break
		}
		d := vm.gdrv[g.idx]
		if d == nil {
			return interp.LaneSlice{}, fmt.Errorf("%w: %s", ErrNotHeld, arrayName(module, path))
		}
		a = d.arr[g.dt.fields[fi].slot]
	}
	if a == nil {
		return interp.LaneSlice{}, errf("no module array %s", arrayName(module, path))
	}
	n := len(a) / vm.nl
	return interp.LaneSlice{Data: a[lane*n : (lane+1)*n], Stride: 1}, nil
}

// arrayName spells a module array path for an error.
func arrayName(module string, path []string) string {
	return module + "::" + strings.Join(path, "%")
}

// SnapshotModuleVarsAll records module-level variables into every live
// lane's AllValues map, mirroring Engine.SnapshotModuleVars per lane.
// It panics on a VM that runs the output slice (SnapshotAll false,
// KernelWatch empty): module variables no output reads hold
// unspecified values there, and recording them would pass them off as
// the run's.
func (vm *BatchVM) SnapshotModuleVarsAll() {
	if vm.sliced {
		panic("bytecode: SnapshotModuleVarsAll on a VM that runs the output slice; set SnapshotAll or KernelWatch")
	}
	for l := 0; l < vm.nl; l++ {
		if vm.errs[l] != nil {
			continue
		}
		for _, ms := range vm.prog.snapModules {
			for i := range ms.entries {
				vm.snapIntoLane(vm.results[l].AllValues, ms.entries[i].key, nil, &ms.entries[i], l)
			}
		}
	}
}

// getFrame takes a released frame of p off the VM's free list, reset,
// or allocates one. The free list is the VM's own: its frames' pointer
// windows and by-reference slots point into this VM's registers.
func (vm *BatchVM) getFrame(p *proc) *bframe {
	if free := vm.free[p.id]; len(free) > 0 {
		fr := free[len(free)-1]
		vm.free[p.id] = free[:len(free)-1]
		fr.reset()
		return fr
	}
	return newBframe(p, vm.ncol, vm.nl)
}

func (vm *BatchVM) putFrame(p *proc, fr *bframe) {
	vm.free[p.id] = append(vm.free[p.id], fr)
}

// mergeDone joins the lanes that completed in place with those that
// completed through recursive branch subgroups, restoring the sorted
// group invariant.
func mergeDone(g, merged []int) []int {
	if len(merged) == 0 {
		return g
	}
	out := make([]int, 0, len(g)+len(merged))
	out = append(out, g...)
	out = append(out, merged...)
	sort.Ints(out)
	return out
}

// skips reports whether the VM skips a call of p: an untraced run of
// the output slice, a proc whose sliced stream only binds and returns,
// and a call depth at which entering p cannot fail.
func (vm *BatchVM) skips(p *proc) bool {
	return vm.skipEmpty && p.slicedEmpty && vm.depth < maxDepth
}

// callBatch runs one activation bound from a call site for a group of
// lanes, returning the callee frame (for result reads) and the lanes
// that completed without error. Exit snapshots cover the entire
// entering group — an erred lane's registers are frozen from its
// retirement point, so the deferred capture reads exactly the state a
// tree-walker run would have snapshotted while unwinding.
func (vm *BatchVM) callBatch(cs *callSite, caller *bframe, g []int) (*bframe, []int) {
	p := cs.proc
	if vm.depth >= maxDepth {
		err := errf("call depth exceeded at %s", p.fullName)
		for _, l := range g {
			vm.errs[l] = err
		}
		return nil, nil
	}
	vm.depth++
	if vm.trace != nil {
		vm.trace(p.module, p.name)
	}
	fr := vm.getFrame(p)
	nl := vm.nl
	for i, mv := range cs.args {
		slot := p.argBind[i]
		if slot.mode == 'u' || mv.mode == amNone {
			continue
		}
		switch mv.mode {
		case amRefScalS:
			a := int(mv.a) * nl
			fr.ptrs[slot.reg] = caller.scal[a : a+nl]
		case amRefScalG:
			a := int(mv.a) * nl
			fr.ptrs[slot.reg] = vm.gscal[a : a+nl]
		case amRefScalP:
			fr.ptrs[slot.reg] = caller.ptrs[mv.a]
		case amRefScalDF:
			b := int(mv.b) * nl
			fr.ptrs[slot.reg] = caller.drv[mv.a].scal[b : b+nl]
		case amRefArr:
			fr.arr[slot.reg] = caller.arr[mv.a]
		case amRefDrv:
			fr.drv[slot.reg] = caller.drv[mv.a]
		case amValScalS:
			a, d := int(mv.a)*nl, int(slot.reg)*nl
			copy(fr.scal[d:d+nl], caller.scal[a:a+nl])
		case amValScalG:
			a, d := int(mv.a)*nl, int(slot.reg)*nl
			copy(fr.scal[d:d+nl], vm.gscal[a:a+nl])
		case amValScalP:
			d := int(slot.reg) * nl
			copy(fr.scal[d:d+nl], caller.ptrs[mv.a])
		case amValScalDF:
			b, d := int(mv.b)*nl, int(slot.reg)*nl
			copy(fr.scal[d:d+nl], caller.drv[mv.a].scal[b:b+nl])
		case amValArr:
			copy(fr.arr[slot.reg], caller.arr[mv.a])
		case amValDrv:
			cloneBdval(fr.drv[slot.reg], caller.drv[mv.a])
		}
	}
	done := vm.exec(p, fr, g, 0)
	vm.exitSnapshotsBatch(p, fr, g)
	vm.depth--
	return fr, done
}

// cloneBdval mirrors Value.Clone on derived values across all lanes —
// fields copied, the phantom scalar reset to zero — binding an argument
// into a fresh callee frame (lanes outside the group are never read).
func cloneBdval(dst, src *bdval) {
	for i := range dst.f {
		dst.f[i] = 0
	}
	copy(dst.scal, src.scal)
	for i := range src.arr {
		copy(dst.arr[i], src.arr[i])
	}
}

// cloneBdvalLane is cloneBdval for one lane only (function results
// copied back for surviving lanes).
func cloneBdvalLane(dst, src *bdval, nl, l int) {
	dst.f[l] = 0
	for s := l; s < len(src.scal); s += nl {
		dst.scal[s] = src.scal[s]
	}
	for i := range src.arr {
		sa, da := src.arr[i], dst.arr[i]
		n := len(sa) / nl
		copy(da[l*n:(l+1)*n], sa[l*n:(l+1)*n])
	}
}

// retScalLane reads lane l of a function result as a scalar (array
// results collapse to their first element, as Value.Scalar does).
func retScalLane(p *proc, fr *bframe, nl, l int) float64 {
	switch p.ret.kind {
	case kArr:
		a := fr.arr[p.ret.reg]
		return a[l*(len(a)/nl)]
	default:
		if p.ret.space == ssPtr {
			return fr.ptrs[p.ret.reg][l]
		}
		return fr.scal[int(p.ret.reg)*nl+l]
	}
}

// exitSnapshotsBatch mirrors the walker's invoke-exit captures per lane
// over the entire entering group, including lanes that erred inside the
// activation.
func (vm *BatchVM) exitSnapshotsBatch(p *proc, fr *bframe, g []int) {
	watch := vm.kernelWatch != "" && vm.kernelWatch == p.fullName
	if !watch && !vm.snapshotAll {
		return
	}
	nl := vm.nl
	for _, l := range g {
		if watch {
			for i := range p.snap {
				e := &p.snap[i]
				if e.fromDerived {
					continue // snapshotKernel skips derived variables
				}
				if e.touch >= 0 && !fr.touched[int(e.touch)*nl+l] {
					continue
				}
				vm.snapIntoLane(vm.results[l].Kernel, e.name, fr, e, l)
			}
		}
		if vm.snapshotAll {
			for i := range p.snap {
				e := &p.snap[i]
				if e.touch >= 0 && !fr.touched[int(e.touch)*nl+l] {
					continue
				}
				vm.snapIntoLane(vm.results[l].AllValues, e.key, fr, e, l)
			}
		}
	}
}

// snapIntoLane stores one lane's snapshot, overwriting an existing
// same-length slice in place: the map's final contents are what a fresh
// copy per exit would leave (last call wins), without the per-exit
// allocation.
func (vm *BatchVM) snapIntoLane(m map[string][]float64, key string, fr *bframe, e *snapEntry, l int) {
	nl := vm.nl
	var src []float64 // lane-major: lane l's elements contiguous
	var v float64
	scalar := false
	switch e.space {
	case ssScal:
		v, scalar = fr.scal[int(e.reg)*nl+l], true
	case ssPtr:
		v, scalar = fr.ptrs[e.reg][l], true
	case ssArr:
		src = fr.arr[e.reg]
	case ssDrvF:
		v, scalar = fr.drv[e.reg].scal[int(e.f)*nl+l], true
	case ssDrvA:
		src = fr.drv[e.reg].arr[e.f]
	case ssGScal:
		v, scalar = vm.gscal[int(e.reg)*nl+l], true
	case ssGArr:
		src = vm.garr[e.reg]
	case ssGDrvF:
		v, scalar = vm.gdrv[e.reg].scal[int(e.f)*nl+l], true
	case ssGDrvA:
		src = vm.gdrv[e.reg].arr[e.f]
	}
	if scalar {
		if dst, ok := m[key]; ok && len(dst) == 1 {
			dst[0] = v
			return
		}
		m[key] = []float64{v}
		return
	}
	n := len(src) / nl
	dst, ok := m[key]
	if !ok || len(dst) != n {
		dst = make([]float64, n)
		m[key] = dst
	}
	copy(dst, src[l*n:(l+1)*n])
}
