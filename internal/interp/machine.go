package interp

import (
	"fmt"

	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/rng"
)

// Config configures a Machine.
type Config struct {
	// Ncol is the number of model columns (field length).
	Ncol int
	// RNG backs random_number calls. Defaults to KISS seeded with 1.
	RNG rng.Source
	// FMA reports whether a module evaluates a*b+c fused. nil = never.
	FMA func(module string) bool
	// Trace, when non-nil, receives every subprogram entry.
	Trace func(module, subprogram string)
	// KernelWatch names a module::subprogram whose variable state is
	// snapshotted at each exit (last call wins) — the KGen hook.
	KernelWatch string
	// SnapshotAll captures every subprogram's variables at each exit
	// (last call wins) into Machine.AllValues, keyed by
	// module::subprogram::variable, and module-level variables as
	// module::::variable. This implements the runtime sampling the
	// paper simulates (§5.4) — instrumenting chosen digraph nodes and
	// comparing values between runs.
	SnapshotAll bool
}

type procKey struct{ module, name string }

// Machine executes a set of FortLite modules by walking the AST. It is
// the reference engine: the bytecode VM is required to reproduce its
// outputs bit for bit, and the differential tests compare against it.
type Machine struct {
	// Results embeds Outputs/Kernel/AllValues, the capture surface
	// shared with the bytecode engine.
	Results

	cfg     Config
	modules map[string]*fortran.Module
	order   []string // deterministic module order
	// storage[module][name] is the module-level variable store. Use
	// imports alias the *Value pointers of the source module.
	storage map[string]map[string]*Value
	// arrays/types track declared shapes for allocation.
	types map[string]map[string]fortran.DerivedType
	funcs map[string][]procKeyTarget
	subs  map[string][]procKeyTarget

	depth      int
	lastResult *Value // most recent function result (set by invoke)
}

type procKeyTarget struct {
	module string
	sub    *fortran.Subprogram
}

// NewMachine loads modules and allocates module-level storage. Modules
// are initialized in the given order (use-dependency order is the
// caller's responsibility; the corpus generator emits a valid order).
func NewMachine(mods []*fortran.Module, cfg Config) (*Machine, error) {
	if cfg.Ncol <= 0 {
		cfg.Ncol = 16
	}
	if cfg.RNG == nil {
		cfg.RNG = rng.NewKISS(1)
	}
	m := &Machine{
		Results: NewResults(),
		cfg:     cfg,
		modules: make(map[string]*fortran.Module, len(mods)),
		storage: make(map[string]map[string]*Value, len(mods)),
		types:   make(map[string]map[string]fortran.DerivedType, len(mods)),
		funcs:   make(map[string][]procKeyTarget),
		subs:    make(map[string][]procKeyTarget),
	}
	for _, mod := range mods {
		if _, dup := m.modules[mod.Name]; dup {
			return nil, fmt.Errorf("interp: duplicate module %q", mod.Name)
		}
		m.modules[mod.Name] = mod
		m.order = append(m.order, mod.Name)
	}
	// Own declarations.
	for _, mod := range mods {
		m.types[mod.Name] = make(map[string]fortran.DerivedType)
		for _, dt := range mod.Types {
			m.types[mod.Name][dt.Name] = dt
		}
	}
	for _, mod := range mods {
		store := make(map[string]*Value)
		m.storage[mod.Name] = store
		for _, d := range mod.Decls {
			for _, name := range d.Names {
				v, err := m.allocate(mod.Name, d, name)
				if err != nil {
					return nil, fmt.Errorf("interp: %s: %w", mod.Name, err)
				}
				if d.Init != nil {
					ev, err := m.evalConst(d.Init)
					if err != nil {
						return nil, fmt.Errorf("interp: %s: %s: %w", mod.Name, name, err)
					}
					assignInto(v, ev)
				}
				store[name] = v
			}
		}
	}
	// Procedures: own then interfaces.
	for _, mod := range mods {
		for _, sub := range mod.Subprograms {
			t := procKeyTarget{module: mod.Name, sub: sub}
			k := mod.Name + "::" + sub.Name
			if sub.Kind == fortran.KindFunction {
				m.funcs[k] = append(m.funcs[k], t)
			} else {
				m.subs[k] = append(m.subs[k], t)
			}
		}
		for _, iface := range mod.Interfaces {
			k := mod.Name + "::" + iface.Name
			for _, proc := range iface.Procedures {
				for _, sub := range mod.Subprograms {
					if sub.Name != proc {
						continue
					}
					t := procKeyTarget{module: mod.Name, sub: sub}
					if sub.Kind == fortran.KindFunction {
						m.funcs[k] = append(m.funcs[k], t)
					} else {
						m.subs[k] = append(m.subs[k], t)
					}
				}
			}
		}
	}
	// Use imports: alias storage pointers, import procedures. Chained
	// use is not followed (matching the metagraph).
	for _, mod := range mods {
		for _, u := range mod.Uses {
			src, ok := m.modules[u.Module]
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
				if v, ok := m.storage[src.Name][r.Remote]; ok && declaredIn(src, r.Remote) {
					if _, shadow := m.storage[mod.Name][r.Local]; !shadow {
						m.storage[mod.Name][r.Local] = v
					}
				}
				srcKey := src.Name + "::" + r.Remote
				dstKey := mod.Name + "::" + r.Local
				if fs, ok := m.funcs[srcKey]; ok {
					m.funcs[dstKey] = append(m.funcs[dstKey], fs...)
				}
				if ss, ok := m.subs[srcKey]; ok {
					m.subs[dstKey] = append(m.subs[dstKey], ss...)
				}
				if dt, ok := m.types[src.Name][r.Remote]; ok {
					m.types[mod.Name][r.Local] = dt
				}
			}
		}
	}
	return m, nil
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

// allocate builds a zero value for the named variable of a declaration.
func (m *Machine) allocate(module string, d fortran.VarDecl, name string) (*Value, error) {
	if d.IsType {
		dt, ok := m.lookupType(module, d.BaseType)
		if !ok {
			return nil, fmt.Errorf("unknown derived type %q", d.BaseType)
		}
		v := &Value{Kind: KindDerived, D: make(map[string]*Value)}
		for _, f := range dt.Fields {
			for fi, fn := range f.Names {
				if f.ArrayAt(fi) {
					v.D[fn] = NewArray(m.cfg.Ncol)
				} else {
					v.D[fn] = NewScalar(0)
				}
			}
		}
		return v, nil
	}
	if d.IsArrayName(name) {
		return NewArray(m.cfg.Ncol), nil
	}
	return NewScalar(0), nil
}

func (m *Machine) lookupType(module, name string) (fortran.DerivedType, bool) {
	if dt, ok := m.types[module][name]; ok {
		return dt, true
	}
	return fortran.DerivedType{}, false
}

// evalConst evaluates a parameter initializer (literals and arithmetic
// over literals only).
func (m *Machine) evalConst(e fortran.Expr) (*Value, error) {
	switch x := e.(type) {
	case *fortran.NumLit:
		return NewScalar(x.Value), nil
	case *fortran.UnaryExpr:
		v, err := m.evalConst(x.X)
		if err != nil {
			return nil, err
		}
		return NewScalar(-v.Scalar()), nil
	case *fortran.BinaryExpr:
		l, err := m.evalConst(x.L)
		if err != nil {
			return nil, err
		}
		r, err := m.evalConst(x.R)
		if err != nil {
			return nil, err
		}
		out, err := applyScalarOp(x.Op, l.Scalar(), r.Scalar())
		if err != nil {
			return nil, err
		}
		return NewScalar(out), nil
	}
	return nil, fmt.Errorf("non-constant initializer")
}

// ModuleVar returns the module-level variable, if present.
func (m *Machine) ModuleVar(module, name string) (*Value, bool) {
	v, ok := m.storage[module][name]
	return v, ok
}

// SetModuleVar overwrites a module-level variable (used to perturb
// initial conditions for ensemble members).
func (m *Machine) SetModuleVar(module, name string, v *Value) error {
	if _, ok := m.storage[module][name]; !ok {
		return fmt.Errorf("interp: no variable %s in module %s", name, module)
	}
	assignInto(m.storage[module][name], v)
	return nil
}

// ModuleArray returns the mutable backing slice of a module-level
// array variable, walking derived-type components: path is the name
// followed by component names (e.g. "state", "t").
func (m *Machine) ModuleArray(module string, path ...string) ([]float64, bool) {
	if len(path) == 0 {
		return nil, false
	}
	v, ok := m.storage[module][path[0]]
	if !ok {
		return nil, false
	}
	for _, comp := range path[1:] {
		if v.Kind != KindDerived {
			return nil, false
		}
		v, ok = v.D[comp]
		if !ok {
			return nil, false
		}
	}
	if v.Kind != KindArray {
		return nil, false
	}
	return v.A, true
}
