package interp

import (
	"fmt"
	"math"

	"github.com/climate-rca/rca/internal/fortran"
)

// frame is one subprogram activation: locals plus by-reference views of
// the actual arguments.
type frame struct {
	module string
	sub    *fortran.Subprogram
	vars   map[string]*Value
}

const maxDepth = 200

// Call invokes module::name, a zero-argument entry subroutine (the
// driver's init/step calls).
func (m *Machine) Call(module, name string) error {
	return m.CallWith(module, name)
}

// CallWith invokes module::name (a subroutine) with the given
// by-reference arguments.
func (m *Machine) CallWith(module, name string, args ...*Value) error {
	targets := m.subs[module+"::"+name]
	if len(targets) == 0 {
		return fmt.Errorf("interp: no subroutine %s in %s", name, module)
	}
	t := m.resolveOverload(targets, len(args))
	return m.invoke(t, args)
}

// resolveOverload picks the interface candidate matching the arity,
// falling back to the first (the static-analysis ambiguity the paper
// handles conservatively is resolved dynamically here).
func (m *Machine) resolveOverload(ts []procKeyTarget, arity int) procKeyTarget {
	for _, t := range ts {
		if len(t.sub.Args) == arity {
			return t
		}
	}
	return ts[0]
}

func (m *Machine) invoke(t procKeyTarget, args []*Value) error {
	if m.depth >= maxDepth {
		return fmt.Errorf("interp: call depth exceeded at %s::%s", t.module, t.sub.Name)
	}
	m.depth++
	defer func() { m.depth-- }()
	if m.cfg.Trace != nil {
		m.cfg.Trace(t.module, t.sub.Name)
	}
	f := &frame{module: t.module, sub: t.sub, vars: make(map[string]*Value, 8)}
	for i, an := range t.sub.Args {
		if i < len(args) && args[i] != nil {
			f.vars[an] = args[i]
		}
	}
	// Allocate locals (and result var) not bound to arguments.
	for _, d := range t.sub.Decls {
		for _, n := range d.Names {
			if _, isArg := f.vars[n]; isArg {
				continue
			}
			v, err := m.allocate(t.module, d, n)
			if err != nil {
				return fmt.Errorf("interp: %s::%s: %w", t.module, t.sub.Name, err)
			}
			if d.Init != nil {
				ev, err := m.evalConst(d.Init)
				if err != nil {
					return err
				}
				assignInto(v, ev)
			}
			f.vars[n] = v
		}
	}
	if t.sub.Kind == fortran.KindFunction {
		rv := t.sub.ResultVar()
		if _, ok := f.vars[rv]; !ok {
			f.vars[rv] = NewScalar(0)
		}
	}
	err := m.execBlock(f, t.sub.Body)
	if err == errReturn {
		err = nil
	}
	if err == nil && t.sub.Kind == fortran.KindFunction {
		if rv := f.vars[t.sub.ResultVar()]; rv != nil {
			m.lastResult = rv.Clone()
		} else {
			m.lastResult = NewScalar(0)
		}
	}
	if m.cfg.KernelWatch == t.module+"::"+t.sub.Name {
		m.snapshotKernel(f)
	}
	if m.cfg.SnapshotAll {
		m.snapshotFrame(f)
	}
	return err
}

// snapshotFrame records every scalar/array variable of the frame under
// the metagraph node-key convention. Derived-type arguments are
// flattened by component (canonical-name style).
func (m *Machine) snapshotFrame(f *frame) {
	prefix := f.module + "::" + f.sub.Name + "::"
	for name, v := range f.vars {
		m.snapshotValue(prefix, name, v)
	}
}

func (m *Machine) snapshotValue(prefix, name string, v *Value) {
	switch v.Kind {
	case KindScalar:
		m.AllValues[prefix+name] = []float64{v.F}
	case KindArray:
		m.AllValues[prefix+name] = append([]float64(nil), v.A...)
	case KindDerived:
		for comp, cv := range v.D {
			m.snapshotValue(prefix, comp, cv)
		}
	}
}

// SnapshotModuleVars records every module-level variable into
// AllValues (call after the run completes).
func (m *Machine) SnapshotModuleVars() {
	for mod, store := range m.storage {
		for name, v := range store {
			if !declaredIn(m.modules[mod], name) {
				continue // use-imported alias; home module records it
			}
			m.snapshotValue(mod+"::::", name, v)
		}
	}
}

// errReturn is the sentinel for FortLite's return statement.
var errReturn = fmt.Errorf("return")

func (m *Machine) execBlock(f *frame, body []fortran.Stmt) error {
	for _, s := range body {
		if err := m.execStmt(f, s); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) execStmt(f *frame, s fortran.Stmt) error {
	switch x := s.(type) {
	case *fortran.AssignStmt:
		return m.execAssign(f, x)
	case *fortran.CallStmt:
		return m.execCall(f, x)
	case *fortran.ReturnStmt:
		return errReturn
	case *fortran.IfStmt:
		cond, err := m.eval(f, x.Cond)
		if err != nil {
			return err
		}
		if truthy(cond) {
			return m.execBlock(f, x.Then)
		}
		return m.execBlock(f, x.Else)
	case *fortran.DoStmt:
		from, err := m.eval(f, x.From)
		if err != nil {
			return err
		}
		to, err := m.eval(f, x.To)
		if err != nil {
			return err
		}
		iv := f.vars[x.Var]
		if iv == nil {
			iv = NewScalar(0)
			f.vars[x.Var] = iv
		}
		lo, hi := int(from.Scalar()), int(to.Scalar())
		for i := lo; i <= hi; i++ {
			iv.F = float64(i)
			if err := m.execBlock(f, x.Body); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("interp: unknown statement %T", s)
}

func truthy(v *Value) bool {
	switch v.Kind {
	case KindScalar:
		return v.F != 0
	case KindArray:
		// Array condition: true when any element is (Fortran's any()
		// would be explicit; FortLite corpus uses scalar conditions, but
		// degrade gracefully).
		for _, x := range v.A {
			if x != 0 {
				return true
			}
		}
	}
	return false
}

// lvalue resolves a reference to the storage cell it denotes, along
// with an optional element index (when the ref indexes an array with a
// scalar subscript). index < 0 means whole value.
func (m *Machine) lvalue(f *frame, r *fortran.Ref) (*Value, int, error) {
	v := f.vars[r.Name]
	if v == nil {
		v = m.storage[f.module][r.Name]
	}
	if v == nil {
		// Implicit local.
		v = NewScalar(0)
		f.vars[r.Name] = v
	}
	// Walk derived components.
	for _, c := range r.Components {
		if v.Kind != KindDerived {
			return nil, -1, fmt.Errorf("interp: %s is not derived (component %s)", r.Name, c)
		}
		nv, ok := v.D[c]
		if !ok {
			return nil, -1, fmt.Errorf("interp: no component %s", c)
		}
		v = nv
	}
	idx := -1
	if r.HasParens && v.Kind == KindArray && len(r.Args) == 1 {
		iv, err := m.eval(f, r.Args[0])
		if err != nil {
			return nil, -1, err
		}
		if iv.Kind == KindScalar {
			idx = int(iv.F) - 1 // Fortran is 1-based
			if idx < 0 || idx >= len(v.A) {
				return nil, -1, fmt.Errorf("interp: index %d out of bounds [1,%d] on %s", idx+1, len(v.A), r.Name)
			}
		}
	}
	return v, idx, nil
}

func (m *Machine) execAssign(f *frame, a *fortran.AssignStmt) error {
	cell, idx, err := m.lvalue(f, a.LHS)
	if err != nil {
		return err
	}
	rhs, err := m.eval(f, a.RHS)
	if err != nil {
		return err
	}
	if idx >= 0 {
		cell.A[idx] = rhs.Scalar()
		return nil
	}
	assignInto(cell, rhs)
	return nil
}

// assignInto stores src into dst in place (preserving aliasing), with
// scalar→array broadcast and array→scalar first-element collapse.
func assignInto(dst, src *Value) {
	switch dst.Kind {
	case KindScalar:
		dst.F = src.Scalar()
	case KindArray:
		switch src.Kind {
		case KindScalar:
			for i := range dst.A {
				dst.A[i] = src.F
			}
		case KindArray:
			n := len(dst.A)
			if len(src.A) < n {
				n = len(src.A)
			}
			copy(dst.A[:n], src.A[:n])
		}
	case KindDerived:
		if src.Kind == KindDerived {
			for k, sv := range src.D {
				if dv, ok := dst.D[k]; ok {
					assignInto(dv, sv)
				}
			}
		}
	}
}

func (m *Machine) execCall(f *frame, c *fortran.CallStmt) error {
	switch c.Name {
	case "outfld":
		return m.execOutfld(f, c)
	case "random_number":
		if len(c.Args) != 1 {
			return fmt.Errorf("interp: random_number wants 1 arg")
		}
		ref, ok := c.Args[0].(*fortran.Ref)
		if !ok {
			return fmt.Errorf("interp: random_number needs a variable")
		}
		cell, idx, err := m.lvalue(f, ref)
		if err != nil {
			return err
		}
		switch {
		case idx >= 0:
			cell.A[idx] = m.cfg.RNG.Float64()
		case cell.Kind == KindArray:
			for i := range cell.A {
				cell.A[i] = m.cfg.RNG.Float64()
			}
		default:
			cell.F = m.cfg.RNG.Float64()
		}
		return nil
	}
	targets := m.subs[f.module+"::"+c.Name]
	if len(targets) == 0 {
		return fmt.Errorf("interp: no subroutine %q visible in %s", c.Name, f.module)
	}
	t := m.resolveOverload(targets, len(c.Args))
	args := make([]*Value, len(c.Args))
	for i, a := range c.Args {
		if ref, ok := a.(*fortran.Ref); ok {
			cell, idx, err := m.lvalue(f, ref)
			if err != nil {
				return err
			}
			if idx >= 0 {
				// Element views are passed by value (copy-in only).
				args[i] = NewScalar(cell.A[idx])
			} else if ref.HasParens && cell.Kind != KindArray {
				// name(...) that is actually a function call result.
				v, err := m.eval(f, a)
				if err != nil {
					return err
				}
				args[i] = v
			} else {
				args[i] = cell
			}
			continue
		}
		v, err := m.eval(f, a)
		if err != nil {
			return err
		}
		args[i] = v
	}
	return m.invoke(t, args)
}

func (m *Machine) execOutfld(f *frame, c *fortran.CallStmt) error {
	if len(c.Args) != 2 {
		return fmt.Errorf("interp: outfld wants 2 args")
	}
	lbl, ok := c.Args[0].(*fortran.StrLit)
	if !ok {
		return fmt.Errorf("interp: outfld label must be a literal")
	}
	v, err := m.eval(f, c.Args[1])
	if err != nil {
		return err
	}
	switch v.Kind {
	case KindArray:
		m.Outputs[lbl.Value] = append([]float64(nil), v.A...)
	case KindScalar:
		m.Outputs[lbl.Value] = []float64{v.F}
	default:
		return fmt.Errorf("interp: outfld of derived value")
	}
	return nil
}

func (m *Machine) snapshotKernel(f *frame) {
	for name, v := range f.vars {
		switch v.Kind {
		case KindScalar:
			m.Kernel[name] = []float64{v.F}
		case KindArray:
			m.Kernel[name] = append([]float64(nil), v.A...)
		}
	}
}

// eval evaluates an expression to a value. Returned values are fresh
// (safe to mutate) except for plain variable references, which alias
// storage — callers that mutate must Clone.
func (m *Machine) eval(f *frame, e fortran.Expr) (*Value, error) {
	switch x := e.(type) {
	case *fortran.NumLit:
		return NewScalar(x.Value), nil
	case *fortran.StrLit:
		return NewScalar(0), nil
	case *fortran.UnaryExpr:
		v, err := m.eval(f, x.X)
		if err != nil {
			return nil, err
		}
		return mapUnary(x.Op, v)
	case *fortran.BinaryExpr:
		return m.evalBinary(f, x)
	case *fortran.Ref:
		return m.evalRef(f, x)
	}
	return nil, fmt.Errorf("interp: unknown expression %T", e)
}

func mapUnary(op fortran.Kind, v *Value) (*Value, error) {
	apply := func(x float64) float64 {
		if op == fortran.NOT {
			if x == 0 {
				return 1
			}
			return 0
		}
		return -x
	}
	switch v.Kind {
	case KindScalar:
		return NewScalar(apply(v.F)), nil
	case KindArray:
		out := NewArray(len(v.A))
		for i, x := range v.A {
			out.A[i] = apply(x)
		}
		return out, nil
	}
	return nil, fmt.Errorf("interp: unary op on derived value")
}

// evalBinary evaluates l op r elementwise with broadcasting. When the
// module has FMA enabled and the expression is (a*b)+c or c+(a*b), the
// multiply-add is fused via math.FMA — the semantic difference between
// AVX2-with-FMA and AVX2-disabled builds in the paper's §6.4.
func (m *Machine) evalBinary(f *frame, b *fortran.BinaryExpr) (*Value, error) {
	if (b.Op == fortran.PLUS || b.Op == fortran.MINUS) && m.cfg.FMA != nil && m.cfg.FMA(f.module) {
		if mul, ok := b.L.(*fortran.BinaryExpr); ok && mul.Op == fortran.STAR {
			// a*b + c fuses directly; a*b - c fuses as FMA(a, b, -c).
			return m.evalFMA(f, mul.L, mul.R, b.R, b.Op == fortran.MINUS, false)
		}
		if b.Op == fortran.PLUS {
			if mul, ok := b.R.(*fortran.BinaryExpr); ok && mul.Op == fortran.STAR {
				return m.evalFMA(f, mul.L, mul.R, b.L, false, false)
			}
		} else if mul, ok := b.R.(*fortran.BinaryExpr); ok && mul.Op == fortran.STAR {
			// c - a*b fuses as FMA(-a, b, c).
			return m.evalFMA(f, mul.L, mul.R, b.L, false, true)
		}
	}
	l, err := m.eval(f, b.L)
	if err != nil {
		return nil, err
	}
	r, err := m.eval(f, b.R)
	if err != nil {
		return nil, err
	}
	return zipValues(b.Op, l, r)
}

// evalFMA computes FMA(±a, b, ±c) elementwise: negC selects a*b - c,
// negA selects c - a*b.
func (m *Machine) evalFMA(f *frame, ae, be, ce fortran.Expr, negC, negA bool) (*Value, error) {
	a, err := m.eval(f, ae)
	if err != nil {
		return nil, err
	}
	bv, err := m.eval(f, be)
	if err != nil {
		return nil, err
	}
	c, err := m.eval(f, ce)
	if err != nil {
		return nil, err
	}
	sa, sc := 1.0, 1.0
	if negA {
		sa = -1
	}
	if negC {
		sc = -1
	}
	n, anyArr := broadcastLen(a, bv, c)
	if !anyArr {
		return NewScalar(math.FMA(sa*a.F, bv.F, sc*c.F)), nil
	}
	out := NewArray(n)
	for i := 0; i < n; i++ {
		out.A[i] = math.FMA(sa*at(a, i), at(bv, i), sc*at(c, i))
	}
	return out, nil
}

func at(v *Value, i int) float64 {
	if v.Kind == KindArray {
		return v.A[i]
	}
	return v.F
}

// broadcastLen returns the common field length (the minimum array
// length across arguments) and whether any argument is an array.
func broadcastLen(vs ...*Value) (int, bool) {
	n, anyArr := 0, false
	for _, v := range vs {
		if v.Kind == KindArray {
			if !anyArr || len(v.A) < n {
				n = len(v.A)
			}
			anyArr = true
		}
	}
	if !anyArr {
		n = 1
	}
	return n, anyArr
}

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
	return 0, fmt.Errorf("interp: bad binary op %v", op)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func zipValues(op fortran.Kind, l, r *Value) (*Value, error) {
	if l.Kind == KindDerived || r.Kind == KindDerived {
		return nil, fmt.Errorf("interp: arithmetic on derived value")
	}
	if l.Kind == KindScalar && r.Kind == KindScalar {
		out, err := applyScalarOp(op, l.F, r.F)
		if err != nil {
			return nil, err
		}
		return NewScalar(out), nil
	}
	n, _ := broadcastLen(l, r)
	out := NewArray(n)
	for i := 0; i < n; i++ {
		v, err := applyScalarOp(op, at(l, i), at(r, i))
		if err != nil {
			return nil, err
		}
		out.A[i] = v
	}
	return out, nil
}

// evalRef evaluates variable references, array elements, intrinsic and
// user function calls.
func (m *Machine) evalRef(f *frame, r *fortran.Ref) (*Value, error) {
	if r.HasParens && len(r.Components) == 0 {
		// Could be intrinsic, function, or array element.
		if fn, ok := intrinsicFns[r.Name]; ok {
			return m.evalIntrinsic(f, r, fn)
		}
		if targets := m.funcs[f.module+"::"+r.Name]; len(targets) > 0 {
			return m.callFunction(f, targets, r.Args)
		}
	}
	cell, idx, err := m.lvalue(f, r)
	if err != nil {
		return nil, err
	}
	if idx >= 0 {
		return NewScalar(cell.A[idx]), nil
	}
	return cell, nil
}

func (m *Machine) callFunction(f *frame, targets []procKeyTarget, argExprs []fortran.Expr) (*Value, error) {
	t := m.resolveOverload(targets, len(argExprs))
	args := make([]*Value, len(argExprs))
	anyArray := false
	for i, a := range argExprs {
		v, err := m.eval(f, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
		if v.Kind == KindArray {
			anyArray = true
		}
	}
	if t.sub.Elemental && anyArray {
		// Elemental broadcast: apply the function per column.
		n, _ := broadcastLen(args...)
		out := NewArray(n)
		for i := 0; i < n; i++ {
			col := make([]*Value, len(args))
			for j, v := range args {
				col[j] = NewScalar(at(v, i))
			}
			rv, err := m.invokeFunction(t, col)
			if err != nil {
				return nil, err
			}
			out.A[i] = rv.Scalar()
		}
		return out, nil
	}
	// Pass clones so the callee cannot alias caller expression temps.
	for i := range args {
		args[i] = args[i].Clone()
	}
	return m.invokeFunction(t, args)
}

func (m *Machine) invokeFunction(t procKeyTarget, args []*Value) (*Value, error) {
	if err := m.invoke(t, args); err != nil {
		return nil, err
	}
	// The result variable lives in the (discarded) frame; re-run with a
	// captured frame would be wasteful, so invoke stores results here:
	return m.lastResult, nil
}

// evalIntrinsic evaluates built-in functions elementwise.
func (m *Machine) evalIntrinsic(f *frame, r *fortran.Ref, fn intrinsicFn) (*Value, error) {
	args := make([]*Value, len(r.Args))
	for i, a := range r.Args {
		v, err := m.eval(f, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return fn(m, args)
}
