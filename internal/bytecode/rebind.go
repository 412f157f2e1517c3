package bytecode

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"

	"github.com/climate-rca/rca/internal/fortran"
)

// Rebind returns the program mods compile to, given that mods has the
// shape p was compiled from (equal fortran.ShapeKey). Such trees differ
// at most in their module-level initializer values — and in whether a
// module-level declaration has an initializer at all, which is not
// shape either — and in their statement literal values. So the result
// shares p's procs, code, symbol tables, cell table and frame pools and
// recomputes only scalInit/arrInit, exactly as linker phase 3 would,
// and the literal-site prefix of consts, from the parser's Lits lists.
// Each declared name's cell comes from p's cell table. A tree whose
// initializers fail to evaluate gets the error a fresh Compile reports. When the values are
// p's own, Rebind returns p itself. A program whose own construction
// failed has no code to share, and a tree whose literal count or
// declared-name count differs from p's is not of its shape; Rebind
// then compiles mods afresh.
func (p *Program) Rebind(mods []*fortran.Module) *Program {
	consts, ok := p.rebindLits(mods)
	if p.initErr != nil || !ok || declaredNames(mods) != len(p.cells) {
		return Compile(mods)
	}
	q := Program{
		scalInit: make([]cellInit, 0, len(p.scalInit)),
		arrInit:  make([]cellInit, 0, len(p.arrInit)),
	}
	i := 0
	for _, mod := range mods {
		for j := range mod.Decls {
			d := &mod.Decls[j]
			if d.Init == nil {
				i += len(d.Names)
				continue
			}
			for _, name := range d.Names {
				if err := q.bindInit(mod.Name, name, d.Init, p.cells[i]); err != nil {
					failed := *p
					failed.initErr = err
					return &failed
				}
				i++
			}
		}
	}
	if consts == nil && sameInits(p.scalInit, q.scalInit) && sameInits(p.arrInit, q.arrInit) {
		return p
	}
	r := *p
	r.scalInit, r.arrInit = q.scalInit, q.arrInit
	if consts != nil {
		r.consts = consts
	}
	return &r
}

// declaredNames counts the module-level declared names of mods, the
// length of their program's cell table.
func declaredNames(mods []*fortran.Module) int {
	n := 0
	for _, mod := range mods {
		for i := range mod.Decls {
			n += len(mod.Decls[i].Names)
		}
	}
	return n
}

// rebindLits returns p's consts with the literal-site prefix rewritten
// to mods' statement literal values, or nil when every value is p's
// own. ok is false when mods does not have p's number of sites.
func (p *Program) rebindLits(mods []*fortran.Module) (consts []float64, ok bool) {
	i := 0
	for _, m := range mods {
		if i+len(m.Lits) > p.nLits {
			return nil, false
		}
		for _, lit := range m.Lits {
			if consts == nil && math.Float64bits(lit.Value) != math.Float64bits(p.consts[i]) {
				consts = append([]float64(nil), p.consts...)
			}
			if consts != nil {
				consts[i] = lit.Value
			}
			i++
		}
	}
	return consts, i == p.nLits
}

// sameInits compares initializer tables bit for bit.
func sameInits(a, b []cellInit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].idx != b[i].idx || math.Float64bits(a[i].val) != math.Float64bits(b[i].val) {
			return false
		}
	}
	return true
}

// Diff returns nil when a and b are the same program, and otherwise an
// error saying where they differ. It compares every field of the two
// programs and of what they point to, except the pool of released VMs,
// which is run state rather than program content. The value tables
// Rebind recomputes compare bit for bit, so a −0/+0 or NaN-payload
// difference counts. It is the oracle of the Rebind contract:
// Rebind(Compile(a), b) must equal Compile(b).
func Diff(a, b *Program) error {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !slices.EqualFunc(a.consts, b.consts, sameBits):
		return errors.New("bytecode: programs differ in consts")
	case !sameInits(a.scalInit, b.scalInit):
		return errors.New("bytecode: programs differ in scalInit")
	case !sameInits(a.arrInit, b.arrInit):
		return errors.New("bytecode: programs differ in arrInit")
	}
	x, y := *a, *b
	x.consts, x.scalInit, x.arrInit, x.batchVMs = nil, nil, nil, nil
	y.consts, y.scalInit, y.arrInit, y.batchVMs = nil, nil, nil, nil
	if len(x.procs) == len(y.procs) {
		for i, pr := range x.procs {
			if !reflect.DeepEqual(pr, y.procs[i]) {
				return fmt.Errorf("bytecode: programs differ in proc %s", pr.fullName)
			}
		}
	}
	if !reflect.DeepEqual(x, y) {
		return errors.New("bytecode: programs differ outside their procs and value tables")
	}
	return nil
}
