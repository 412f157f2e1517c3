package bytecode

import (
	"fmt"
	"math"
	"strings"

	"github.com/climate-rca/rca/internal/fortran"
)

// linker replays interp.NewMachine's construction — module storage
// allocation with initializers, procedure and interface registration,
// use-import aliasing — so the compiled program's symbol resolution is
// the tree walker's, phase for phase. The phase ORDER is semantic:
// module-level declarations see only their module's own derived types
// (imports are processed afterwards), procedure imports chain in
// module order, and import aliasing never shadows a module's own
// declarations.
type linker struct {
	mods      []*fortran.Module
	modByName map[string]*fortran.Module

	types   map[string]map[string]fortran.DerivedType
	storage map[string]map[string]gref
	funcs   map[string][]target
	subs    map[string][]target

	dtypes map[string]*dtype // layout key → interned type

	prog *Program
}

func newLinker(mods []*fortran.Module, prog *Program) *linker {
	return &linker{
		mods:      mods,
		modByName: make(map[string]*fortran.Module, len(mods)),
		types:     make(map[string]map[string]fortran.DerivedType),
		storage:   make(map[string]map[string]gref),
		funcs:     make(map[string][]target),
		subs:      make(map[string][]target),
		dtypes:    make(map[string]*dtype),
		prog:      prog,
	}
}

// link runs every construction phase; a non-nil error is the
// NewMachine-equivalent failure the VM must report at creation.
func (l *linker) link() error {
	p := l.prog
	// Phase 1: module registry.
	for _, mod := range l.mods {
		if _, dup := l.modByName[mod.Name]; dup {
			return errf("duplicate module %q", mod.Name)
		}
		l.modByName[mod.Name] = mod
		p.moduleIdx[mod.Name] = len(p.modules)
		p.modules = append(p.modules, mod.Name)
	}
	// Phase 2: own derived types.
	for _, mod := range l.mods {
		l.types[mod.Name] = make(map[string]fortran.DerivedType)
		for _, dt := range mod.Types {
			l.types[mod.Name][dt.Name] = dt
		}
	}
	// Phase 3: module-level storage with initializers. Later
	// declarations of the same name rebind it (the walker's map
	// overwrite); initializer failures abort construction.
	for _, mod := range l.mods {
		store := make(map[string]gref)
		l.storage[mod.Name] = store
		for _, d := range mod.Decls {
			for _, name := range d.Names {
				g, err := l.allocate(mod.Name, d, name)
				if err != nil {
					return errf("%s: %v", mod.Name, err)
				}
				if err := p.bindInit(mod.Name, name, d.Init, g); err != nil {
					return err
				}
				p.cells = append(p.cells, g)
				store[name] = g
			}
		}
	}
	// Phase 4: own procedures, then interfaces.
	for _, mod := range l.mods {
		for _, sub := range mod.Subprograms {
			t := target{module: mod.Name, sub: sub}
			k := mod.Name + "::" + sub.Name
			if sub.Kind == fortran.KindFunction {
				l.funcs[k] = append(l.funcs[k], t)
			} else {
				l.subs[k] = append(l.subs[k], t)
			}
		}
		for _, iface := range mod.Interfaces {
			k := mod.Name + "::" + iface.Name
			for _, procName := range iface.Procedures {
				for _, sub := range mod.Subprograms {
					if sub.Name != procName {
						continue
					}
					t := target{module: mod.Name, sub: sub}
					if sub.Kind == fortran.KindFunction {
						l.funcs[k] = append(l.funcs[k], t)
					} else {
						l.subs[k] = append(l.subs[k], t)
					}
				}
			}
		}
	}
	// Phase 5: use imports — storage aliasing (own names shadow),
	// procedure appends (chained imports follow module order) and type
	// imports (which overwrite without a shadow check, as the walker's
	// do).
	for _, mod := range l.mods {
		for _, u := range mod.Uses {
			src, ok := l.modByName[u.Module]
			if !ok {
				continue
			}
			imports := u.Only
			if len(imports) == 0 {
				for _, d := range src.Decls {
					for _, n := range d.Names {
						imports = append(imports, fortran.Rename{Local: n, Remote: n})
					}
				}
				for _, sub := range src.Subprograms {
					imports = append(imports, fortran.Rename{Local: sub.Name, Remote: sub.Name})
				}
				for _, iface := range src.Interfaces {
					imports = append(imports, fortran.Rename{Local: iface.Name, Remote: iface.Name})
				}
				for _, dt := range src.Types {
					imports = append(imports, fortran.Rename{Local: dt.Name, Remote: dt.Name})
				}
			}
			for _, r := range imports {
				if g, ok := l.storage[src.Name][r.Remote]; ok && declaredIn(src, r.Remote) {
					if _, shadow := l.storage[mod.Name][r.Local]; !shadow {
						l.storage[mod.Name][r.Local] = g
					}
				}
				srcKey := src.Name + "::" + r.Remote
				dstKey := mod.Name + "::" + r.Local
				if fs, ok := l.funcs[srcKey]; ok {
					l.funcs[dstKey] = append(l.funcs[dstKey], fs...)
				}
				if ss, ok := l.subs[srcKey]; ok {
					l.subs[dstKey] = append(l.subs[dstKey], ss...)
				}
				if dt, ok := l.types[src.Name][r.Remote]; ok {
					l.types[mod.Name][r.Local] = dt
				}
			}
		}
	}
	// Export the resolved symbol tables the VM serves at runtime.
	p.moduleVars = make(map[string]map[string]gref, len(l.mods))
	for m, store := range l.storage {
		p.moduleVars[m] = store
	}
	l.buildModuleSnaps()
	return nil
}

// bindInit records the module-level initializer of global cell g —
// phase 3's value half, which Rebind repeats for a same-shape tree.
// Derived targets only evaluate: the walker's assignInto is a no-op.
func (p *Program) bindInit(module, name string, init fortran.Expr, g gref) error {
	if init == nil {
		return nil
	}
	v, err := constEval(init)
	if err != nil {
		return errf("%s: %s: %v", module, name, err)
	}
	switch g.kind {
	case kScal:
		p.scalInit = append(p.scalInit, cellInit{g.idx, v})
	case kArr:
		p.arrInit = append(p.arrInit, cellInit{g.idx, v})
	}
	return nil
}

func declaredIn(mod *fortran.Module, name string) bool {
	for _, d := range mod.Decls {
		for _, n := range d.Names {
			if n == name {
				return true
			}
		}
	}
	return false
}

// allocate assigns a global cell for one module-level variable,
// mirroring Machine.allocate.
func (l *linker) allocate(module string, d fortran.VarDecl, name string) (gref, error) {
	p := l.prog
	if d.IsType {
		fdt, ok := l.types[module][d.BaseType]
		if !ok {
			return gref{}, fmt.Errorf("unknown derived type %q", d.BaseType)
		}
		dt := l.internType(fdt)
		g := gref{kind: kDrv, idx: int32(len(p.gdrvs)), dt: dt}
		p.gdrvs = append(p.gdrvs, dt)
		return g, nil
	}
	if d.IsArrayName(name) {
		g := gref{kind: kArr, idx: int32(p.nGArr)}
		p.nGArr++
		return g, nil
	}
	g := gref{kind: kScal, idx: int32(p.nGScal)}
	p.nGScal++
	return g, nil
}

// internType resolves a parsed derived type to an interned layout.
// Duplicate field names keep their first position with the later
// declaration's shape, matching the walker's map-overwrite allocation.
func (l *linker) internType(fdt fortran.DerivedType) *dtype {
	var names []string
	shapes := map[string]bool{}
	for _, f := range fdt.Fields {
		for fi, fn := range f.Names {
			if _, seen := shapes[fn]; !seen {
				names = append(names, fn)
			}
			shapes[fn] = f.ArrayAt(fi)
		}
	}
	var key strings.Builder
	for _, n := range names {
		key.WriteString(n)
		if shapes[n] {
			key.WriteString(":a;")
		} else {
			key.WriteString(":s;")
		}
	}
	if dt, ok := l.dtypes[key.String()]; ok {
		return dt
	}
	dt := &dtype{id: len(l.dtypes), fidx: make(map[string]int, len(names))}
	for _, n := range names {
		f := dfield{name: n, arr: shapes[n]}
		if f.arr {
			f.slot = int32(dt.nArr)
			dt.nArr++
		} else {
			f.slot = int32(dt.nScal)
			dt.nScal++
		}
		dt.fidx[n] = len(dt.fields)
		dt.fields = append(dt.fields, f)
	}
	l.dtypes[key.String()] = dt
	return dt
}

// constEval mirrors Machine.evalConst: literals and arithmetic over
// literals; the unary case always negates (including .not., exactly as
// the walker does).
func constEval(e fortran.Expr) (float64, error) {
	switch x := e.(type) {
	case *fortran.NumLit:
		return x.Value, nil
	case *fortran.UnaryExpr:
		v, err := constEval(x.X)
		if err != nil {
			return 0, err
		}
		return -v, nil
	case *fortran.BinaryExpr:
		lv, err := constEval(x.L)
		if err != nil {
			return 0, err
		}
		rv, err := constEval(x.R)
		if err != nil {
			return 0, err
		}
		return applyScalarOp(x.Op, lv, rv)
	}
	return 0, fmt.Errorf("non-constant initializer")
}

// buildModuleSnaps precomputes the SnapshotModuleVars entries: every
// module's own (declared) variables under the module::::name key
// convention, derived instances flattened by component.
func (l *linker) buildModuleSnaps() {
	p := l.prog
	p.snapModules = make([]moduleSnap, len(l.mods))
	for mi, mod := range l.mods {
		seen := map[string]bool{}
		var ms moduleSnap
		for _, d := range mod.Decls {
			for _, name := range d.Names {
				if seen[name] {
					continue
				}
				seen[name] = true
				g := l.storage[mod.Name][name]
				prefix := mod.Name + "::::"
				switch g.kind {
				case kScal:
					ms.entries = append(ms.entries, snapEntry{key: prefix + name, space: ssGScal, reg: g.idx, touch: -1})
				case kArr:
					ms.entries = append(ms.entries, snapEntry{key: prefix + name, space: ssGArr, reg: g.idx, touch: -1})
				case kDrv:
					for _, f := range g.dt.fields {
						sp, fs := ssGDrvF, f.slot
						if f.arr {
							sp = ssGDrvA
						}
						ms.entries = append(ms.entries, snapEntry{key: prefix + f.name, space: sp, reg: g.idx, f: fs, touch: -1})
					}
				}
			}
		}
		p.snapModules[mi] = ms
	}
}

// applyScalarOp mirrors interp's scalar semantics exactly for the
// linker's constant evaluator.
func applyScalarOp(op fortran.Kind, a, b float64) (float64, error) {
	switch op {
	case fortran.PLUS:
		return a + b, nil
	case fortran.MINUS:
		return a - b, nil
	case fortran.STAR:
		return a * b, nil
	case fortran.SLASH:
		return a / b, nil
	case fortran.POW:
		return math.Pow(a, b), nil
	case fortran.EQ:
		return b2f(a == b), nil
	case fortran.NE:
		return b2f(a != b), nil
	case fortran.LT:
		return b2f(a < b), nil
	case fortran.LE:
		return b2f(a <= b), nil
	case fortran.GT:
		return b2f(a > b), nil
	case fortran.GE:
		return b2f(a >= b), nil
	case fortran.AND:
		return b2f(a != 0 && b != 0), nil
	case fortran.OR:
		return b2f(a != 0 || b != 0), nil
	}
	return 0, fmt.Errorf("bad binary op %v", op)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
