package bytecode

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/climate-rca/rca/internal/binenc"
)

// progCodecVersion is bumped whenever the Program encoding below
// changes shape. The artifact store folds it into the blob, so stale
// on-disk programs from an older binary simply miss and recompile.
// Version 2 carries the literal-site count after the constants;
// version 3 renumbers the opcodes around opLinV and adds the literal
// operand forms of the elementwise arithmetic; version 4 carries each
// proc's output-slice cuts after its code, from which decoding
// rebuilds the sliced stream.
const progCodecVersion uint32 = 4

// EncodeProgram serializes a compiled program to the deterministic
// binary artifact format: encoding the same program twice — or a
// DecodeProgram result — yields identical bytes. Programs whose
// construction failed (Err() != nil) are not cacheable artifacts and
// refuse to encode; callers fall back to compiling from source.
func EncodeProgram(p *Program) ([]byte, error) {
	if p == nil {
		return nil, errors.New("bytecode: encode nil program")
	}
	if p.initErr != nil {
		return nil, fmt.Errorf("bytecode: refusing to encode failed program: %w", p.initErr)
	}
	w := binenc.NewWriter(1 << 16)
	w.U32(progCodecVersion)

	w.Len(len(p.modules))
	for _, m := range p.modules {
		w.String(m)
	}
	w.Int(p.nGScal)
	w.Int(p.nGArr)

	// Derived-type intern table, collected by pointer in a fixed
	// traversal order (gdrvs, moduleVars sorted by module then name,
	// then each proc's ownDrv and retDt). The order is a function of
	// the program alone, so re-encoding a decoded program reproduces
	// the table — the bit-exactness the content addresses rely on.
	table, ref := collectDtypes(p)
	w.Len(len(table))
	for _, dt := range table {
		w.Int(dt.id)
		w.Len(len(dt.fields))
		for _, f := range dt.fields {
			w.String(f.name)
			w.Bool(f.arr)
			w.I32(f.slot)
		}
		w.Int(dt.nScal)
		w.Int(dt.nArr)
	}

	w.Len(len(p.gdrvs))
	for _, dt := range p.gdrvs {
		w.I32(ref[dt])
	}

	w.Len(len(p.scalInit))
	for _, si := range p.scalInit {
		w.I32(si.idx)
		w.F64(si.val)
	}
	w.Len(len(p.arrInit))
	for _, ai := range p.arrInit {
		w.I32(ai.idx)
		w.F64(ai.val)
	}

	w.Len(len(p.consts))
	for _, c := range p.consts {
		w.F64(c)
	}
	w.Int(p.nLits)
	w.Len(len(p.labels))
	for _, l := range p.labels {
		w.String(l)
	}
	w.Len(len(p.errs))
	for _, e := range p.errs {
		w.String(e.Error())
	}

	w.Len(len(p.procs))
	for i, pr := range p.procs {
		if pr.id != i {
			return nil, fmt.Errorf("bytecode: proc %q id %d at index %d", pr.fullName, pr.id, i)
		}
		encodeProc(w, pr, ref)
	}

	w.Len(len(p.calls))
	for _, cs := range p.calls {
		w.Int(cs.proc.id)
		w.Len(len(cs.args))
		for _, a := range cs.args {
			w.U8(uint8(a.mode))
			w.I32(a.a)
			w.I32(a.b)
		}
		w.Len(len(cs.elem))
		for _, e := range cs.elem {
			w.U8(uint8(e.space))
			w.I32(e.a)
			w.I32(e.b)
		}
	}

	entryKeys := sortedKeys(p.entries)
	w.Len(len(entryKeys))
	for _, k := range entryKeys {
		w.String(k)
		w.Int(p.entries[k].id)
	}

	modKeys := sortedKeys(p.moduleVars)
	w.Len(len(modKeys))
	for _, mod := range modKeys {
		vars := p.moduleVars[mod]
		w.String(mod)
		names := sortedKeys(vars)
		w.Len(len(names))
		for _, name := range names {
			g := vars[name]
			w.String(name)
			w.U8(uint8(g.kind))
			w.I32(g.idx)
			if g.dt == nil {
				w.I32(-1)
			} else {
				w.I32(ref[g.dt])
			}
		}
	}

	w.Len(len(p.snapModules))
	for _, ms := range p.snapModules {
		w.Len(len(ms.entries))
		for _, se := range ms.entries {
			encodeSnap(w, se)
		}
	}
	return w.Bytes(), nil
}

// DecodeProgram reconstructs a program from EncodeProgram bytes. The
// result is runnable and re-encodes to the identical payload. Any
// structural damage returns an error; the artifact store treats that
// as a miss and rebuilds from source.
func DecodeProgram(data []byte) (*Program, error) {
	r := binenc.NewReader(data)
	if v := r.U32(); v != progCodecVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("bytecode: program codec version %d, want %d", v, progCodecVersion)
	}
	p := &Program{
		moduleIdx:  make(map[string]int),
		entries:    make(map[string]*proc),
		moduleVars: make(map[string]map[string]gref),
	}
	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		name := r.String()
		p.moduleIdx[name] = len(p.modules)
		p.modules = append(p.modules, name)
	}
	p.nGScal = r.Int()
	p.nGArr = r.Int()

	table := make([]*dtype, r.Len())
	for i := range table {
		dt := &dtype{id: r.Int()}
		dt.fields = make([]dfield, r.Len())
		dt.fidx = make(map[string]int, len(dt.fields))
		for j := range dt.fields {
			dt.fields[j] = dfield{name: r.String(), arr: r.Bool(), slot: r.I32()}
			dt.fidx[dt.fields[j].name] = j
		}
		dt.nScal = r.Int()
		dt.nArr = r.Int()
		table[i] = dt
	}
	deref := func(i int32) (*dtype, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || int(i) >= len(table) {
			return nil, binenc.ErrMalformed
		}
		return table[i], nil
	}

	p.gdrvs = make([]*dtype, r.Len())
	for i := range p.gdrvs {
		dt, err := deref(r.I32())
		if err != nil || dt == nil {
			return nil, binenc.ErrMalformed
		}
		p.gdrvs[i] = dt
	}

	p.scalInit = make([]cellInit, r.Len())
	for i := range p.scalInit {
		p.scalInit[i].idx = r.I32()
		p.scalInit[i].val = r.F64()
	}
	p.arrInit = make([]cellInit, r.Len())
	for i := range p.arrInit {
		p.arrInit[i].idx = r.I32()
		p.arrInit[i].val = r.F64()
	}

	p.consts = make([]float64, r.Len())
	for i := range p.consts {
		p.consts[i] = r.F64()
	}
	if p.nLits = r.Int(); p.nLits < 0 || p.nLits > len(p.consts) {
		return nil, binenc.ErrMalformed
	}
	p.labels = make([]string, r.Len())
	for i := range p.labels {
		p.labels[i] = r.String()
	}
	p.errs = make([]error, r.Len())
	for i := range p.errs {
		p.errs[i] = errors.New(r.String())
	}

	p.procs = make([]*proc, r.Len())
	for i := range p.procs {
		pr, err := decodeProc(r, i, deref)
		if err != nil {
			return nil, err
		}
		p.procs[i] = pr
	}
	procRef := func() (*proc, error) {
		id := r.Int()
		if r.Err() != nil || id < 0 || id >= len(p.procs) {
			return nil, binenc.ErrMalformed
		}
		return p.procs[id], nil
	}

	p.calls = make([]*callSite, r.Len())
	for i := range p.calls {
		pr, err := procRef()
		if err != nil {
			return nil, err
		}
		cs := &callSite{proc: pr}
		cs.args = make([]argMove, r.Len())
		for j := range cs.args {
			cs.args[j] = argMove{mode: amode(r.U8()), a: r.I32(), b: r.I32()}
		}
		cs.elem = make([]elemArg, r.Len())
		for j := range cs.elem {
			cs.elem[j] = elemArg{space: elemSpace(r.U8()), a: r.I32(), b: r.I32()}
		}
		p.calls[i] = cs
	}

	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		k := r.String()
		pr, err := procRef()
		if err != nil {
			return nil, err
		}
		p.entries[k] = pr
	}

	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		mod := r.String()
		vars := make(map[string]gref)
		for m := r.Len(); m > 0 && r.Err() == nil; m-- {
			name := r.String()
			g := gref{kind: vkind(r.U8()), idx: r.I32()}
			dt, err := deref(r.I32())
			if err != nil {
				return nil, err
			}
			g.dt = dt
			vars[name] = g
		}
		p.moduleVars[mod] = vars
	}

	p.snapModules = make([]moduleSnap, r.Len())
	for i := range p.snapModules {
		entries := make([]snapEntry, r.Len())
		for j := range entries {
			entries[j] = decodeSnap(r)
		}
		p.snapModules[i].entries = entries
	}

	if err := r.Done(); err != nil {
		return nil, err
	}
	p.batchVMs = new(sync.Map)
	return p, nil
}

func encodeProc(w *binenc.Writer, pr *proc, ref map[*dtype]int32) {
	w.String(pr.module)
	w.I32(pr.modIdx)
	w.String(pr.name)
	w.String(pr.fullName)
	w.Bool(pr.isFunc)

	w.Len(len(pr.code))
	for _, in := range pr.code {
		w.U32(uint32(in.op))
		w.I32(in.a)
		w.I32(in.b)
		w.I32(in.c)
		w.I32(in.d)
		w.I32(in.e)
	}
	w.Len(len(pr.cut))
	for _, c := range pr.cut {
		w.I32(c[0])
		w.I32(c[1])
	}

	w.Int(pr.nScal)
	w.Int(pr.nPtr)
	w.Int(pr.nArr)
	w.Int(pr.nDrv)
	w.Int(pr.nInt)
	w.Int(pr.nTouch)

	w.Len(len(pr.ownArr))
	for _, a := range pr.ownArr {
		w.I32(a)
	}
	w.Len(len(pr.zeroArr))
	for _, a := range pr.zeroArr {
		w.I32(a)
	}
	w.Len(len(pr.ownDrv))
	for _, od := range pr.ownDrv {
		w.I32(od.reg)
		w.I32(ref[od.dt])
	}

	w.Len(len(pr.argBind))
	for _, ab := range pr.argBind {
		w.U8(ab.mode)
		w.I32(ab.reg)
	}

	w.U8(uint8(pr.ret.kind))
	w.U8(uint8(pr.ret.space))
	w.I32(pr.ret.reg)
	if pr.retDt == nil {
		w.I32(-1)
	} else {
		w.I32(ref[pr.retDt])
	}

	w.Len(len(pr.snap))
	for _, se := range pr.snap {
		encodeSnap(w, se)
	}
}

func decodeProc(r *binenc.Reader, id int, deref func(int32) (*dtype, error)) (*proc, error) {
	pr := &proc{
		id:       id,
		module:   r.String(),
		modIdx:   r.I32(),
		name:     r.String(),
		fullName: r.String(),
		isFunc:   r.Bool(),
	}
	pr.code = make([]instr, r.Len())
	for i := range pr.code {
		pr.code[i] = instr{
			op: opcode(r.U32()),
			a:  r.I32(), b: r.I32(), c: r.I32(), d: r.I32(), e: r.I32(),
		}
		if isJump(pr.code[i].op) && (pr.code[i].b < 0 || int(pr.code[i].b) > len(pr.code)) {
			return nil, binenc.ErrMalformed
		}
	}
	pr.cut = make([][2]int32, r.Len())
	prev := int32(0)
	for i := range pr.cut {
		pr.cut[i] = [2]int32{r.I32(), r.I32()}
		if pr.cut[i][0] < prev || pr.cut[i][1] <= pr.cut[i][0] || int(pr.cut[i][1]) > len(pr.code) {
			return nil, binenc.ErrMalformed
		}
		prev = pr.cut[i][1]
	}
	pr.sliced = cutCode(pr.code, pr.cut)
	pr.nScal = r.Int()
	pr.nPtr = r.Int()
	pr.nArr = r.Int()
	pr.nDrv = r.Int()
	pr.nInt = r.Int()
	pr.nTouch = r.Int()

	pr.ownArr = make([]int32, r.Len())
	for i := range pr.ownArr {
		pr.ownArr[i] = r.I32()
	}
	pr.zeroArr = make([]int32, r.Len())
	for i := range pr.zeroArr {
		pr.zeroArr[i] = r.I32()
	}
	pr.ownDrv = make([]struct {
		reg int32
		dt  *dtype
	}, r.Len())
	for i := range pr.ownDrv {
		pr.ownDrv[i].reg = r.I32()
		dt, err := deref(r.I32())
		if err != nil || dt == nil {
			return nil, binenc.ErrMalformed
		}
		pr.ownDrv[i].dt = dt
	}

	pr.argBind = make([]argSlot, r.Len())
	for i := range pr.argBind {
		pr.argBind[i] = argSlot{mode: r.U8(), reg: r.I32()}
	}

	pr.ret.kind = vkind(r.U8())
	pr.ret.space = snapSpace(r.U8())
	pr.ret.reg = r.I32()
	dt, err := deref(r.I32())
	if err != nil {
		return nil, err
	}
	pr.retDt = dt

	pr.snap = make([]snapEntry, r.Len())
	for i := range pr.snap {
		pr.snap[i] = decodeSnap(r)
	}
	return pr, r.Err()
}

func encodeSnap(w *binenc.Writer, se snapEntry) {
	w.String(se.name)
	w.String(se.key)
	w.U8(uint8(se.space))
	w.I32(se.reg)
	w.I32(se.f)
	w.Bool(se.fromDerived)
	w.I32(se.touch)
}

func decodeSnap(r *binenc.Reader) snapEntry {
	return snapEntry{
		name:        r.String(),
		key:         r.String(),
		space:       snapSpace(r.U8()),
		reg:         r.I32(),
		f:           r.I32(),
		fromDerived: r.Bool(),
		touch:       r.I32(),
	}
}

// collectDtypes builds the encode-side derived-type intern table by
// walking every *dtype reference in a fixed order. Interning is by
// pointer: distinct layouts — and distinct instances of an identical
// layout — each get one slot, assigned at first encounter.
func collectDtypes(p *Program) ([]*dtype, map[*dtype]int32) {
	var table []*dtype
	ref := make(map[*dtype]int32)
	add := func(dt *dtype) {
		if dt == nil {
			return
		}
		if _, ok := ref[dt]; ok {
			return
		}
		ref[dt] = int32(len(table))
		table = append(table, dt)
	}
	for _, dt := range p.gdrvs {
		add(dt)
	}
	for _, mod := range sortedKeys(p.moduleVars) {
		vars := p.moduleVars[mod]
		for _, name := range sortedKeys(vars) {
			add(vars[name].dt)
		}
	}
	for _, pr := range p.procs {
		for _, od := range pr.ownDrv {
			add(od.dt)
		}
		add(pr.retDt)
	}
	return table, ref
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
