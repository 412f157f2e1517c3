package fortran

import (
	"strings"
	"testing"
)

const shapeBase = `module consts
  real, parameter :: k = 2.0
  real :: w(:), z
end module

module phys
  use consts, only: k
  real :: y(:), s = 1.0
contains
  subroutine run()
    real :: t = 0.5
    y = w * k + 3.0
    s = t
  end subroutine
end module
`

func parseShapes(t *testing.T, src string) []*Module {
	t.Helper()
	mods, err := ParseFile(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	for _, m := range mods {
		d, lits := shapeDigest(m)
		if m.Shape != d || len(m.Lits) != len(lits) {
			t.Fatalf("module %s: parser digest or literal list differs from shapeDigest", m.Name)
		}
		for i := range lits {
			if m.Lits[i] != lits[i] {
				t.Fatalf("module %s: literal %d differs from shapeDigest's", m.Name, i)
			}
		}
	}
	return mods
}

func shapeKeyOf(t *testing.T, mods []*Module) string {
	t.Helper()
	key := ShapeKey(mods)
	if key == "" {
		t.Fatal("parsed modules carry no shape digest")
	}
	return key
}

// TestShapeDigestProperties pins what the shape digest covers: every
// edit a compiled program's code depends on changes it, and the values
// Rebind recomputes — module-level initializers and statement literals
// — do not.
func TestShapeDigestProperties(t *testing.T) {
	base := shapeKeyOf(t, parseShapes(t, shapeBase))

	same := map[string][2]string{
		"module parameter value":  {"k = 2.0", "k = 2.5"},
		"module variable value":   {"s = 1.0", "s = -(4.0 * 0.25)"},
		"module initializer kind": {"k = 2.0", "k = z"},
		"subprogram literal":      {"+ 3.0", "+ 3.5"},
	}
	for name, edit := range same {
		src := strings.Replace(shapeBase, edit[0], edit[1], 1)
		if src == shapeBase {
			t.Fatalf("%s: edit %q matched nothing", name, edit[0])
		}
		if got := shapeKeyOf(t, parseShapes(t, src)); got != base {
			t.Errorf("%s changed the shape key", name)
		}
	}

	differ := map[string][2]string{
		"local initializer":      {"t = 0.5", "t = 0.25"},
		"literal to variable":    {"+ 3.0", "+ z"},
		"literal added":          {"+ 3.0", "+ 3.0 * 2.0"},
		"declaration name":       {"real :: w(:), z", "real :: w(:), zz"},
		"declaration type":       {"real :: w(:), z", "integer :: w(:), z"},
		"declaration array flag": {"real :: w(:), z", "real :: w(:), z(:)"},
		"use only list":          {"use consts, only: k", "use consts, only: k, w"},
		"use whole module":       {"use consts, only: k", "use consts"},
		"statement order":        {"    y = w * k + 3.0\n    s = t\n", "    s = t\n    y = w * k + 3.0\n"},
		"line numbers":           {"module phys\n", "\nmodule phys\n"},
	}
	for name, edit := range differ {
		src := strings.Replace(shapeBase, edit[0], edit[1], 1)
		if src == shapeBase {
			t.Fatalf("%s: edit %q matched nothing", name, edit[0])
		}
		if got := shapeKeyOf(t, parseShapes(t, src)); got == base {
			t.Errorf("%s left the shape key unchanged", name)
		}
	}

	mods := parseShapes(t, shapeBase)
	extra := parseShapes(t, "module extra\n  real :: e\nend module\n")
	for name, list := range map[string][]*Module{
		"module added":     {mods[0], mods[1], extra[0]},
		"module removed":   {mods[1]},
		"modules reversed": {mods[1], mods[0]},
	} {
		if got := shapeKeyOf(t, list); got == base {
			t.Errorf("%s left the shape key unchanged", name)
		}
	}

	// A module without a digest has no shape key at all.
	hand := &Module{Name: "hand", Decls: mods[0].Decls}
	if ShapeKey([]*Module{mods[0], hand}) != "" {
		t.Error("ShapeKey accepted a module that carries no digest")
	}
}
