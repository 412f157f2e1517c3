package bytecode

import (
	"math"

	"github.com/climate-rca/rca/internal/fortran"
)

// Rebind returns the program mods compile to, given that mods has the
// shape p was compiled from (equal fortran.ShapeKey). Such trees differ
// at most in their module-level initializer values, so the result
// shares p's procs, code, constants, symbol tables and frame pools and
// recomputes only scalInit/arrInit, exactly as linker phase 3 would. A
// tree whose initializers fail to evaluate gets the error a fresh
// Compile reports. When the values are p's own, Rebind returns p
// itself. A program whose own construction failed has no code to
// share; Rebind then compiles mods afresh.
func (p *Program) Rebind(mods []*fortran.Module) *Program {
	if p.initErr != nil {
		return Compile(mods)
	}
	// Replay phase 3's allocation order to find each declaration's
	// cell: derived instances take neither a scalar nor an array cell,
	// array names take the next array cell, everything else the next
	// scalar cell (allocate's case order). isArr caches IsArrayName per
	// declaration — the first occurrence of a name decides — without
	// its quadratic scan over long name lists.
	var q Program
	var nScal, nArr int32
	isArr := map[string]bool{}
	for _, mod := range mods {
		for i := range mod.Decls {
			d := &mod.Decls[i]
			clear(isArr)
			for j, name := range d.Names {
				arr, seen := isArr[name]
				if !seen {
					arr = d.ArrayAt(j)
					isArr[name] = arr
				}
				g := gref{kind: kDrv}
				switch {
				case d.IsType:
				case arr:
					g = gref{kind: kArr, idx: nArr}
					nArr++
				default:
					g = gref{kind: kScal, idx: nScal}
					nScal++
				}
				if err := q.bindInit(mod.Name, name, d.Init, g); err != nil {
					failed := *p
					failed.initErr = err
					return &failed
				}
			}
		}
	}
	if sameInits(p.scalInit, q.scalInit) && sameInits(p.arrInit, q.arrInit) {
		return p
	}
	r := *p
	r.scalInit, r.arrInit = q.scalInit, q.arrInit
	return &r
}

// sameInits compares initializer tables bit for bit, the way their
// encodings compare.
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
