package fortran

import (
	"reflect"
	"strings"
	"testing"
)

// nodes collects every node pointer of a tree: modules, subprograms,
// statements, expressions (declaration initializers included).
func nodes(mods []*Module) map[any]bool {
	seen := map[any]bool{}
	exprs := func(e Expr) { WalkExprs(e, func(x Expr) { seen[x] = true }) }
	decls := func(ds []VarDecl) {
		for i := range ds {
			seen[&ds[i]] = true
			exprs(ds[i].Init)
		}
	}
	for _, m := range mods {
		seen[m] = true
		decls(m.Decls)
		for _, sub := range m.Subprograms {
			seen[sub] = true
			decls(sub.Decls)
			WalkStmts(sub.Body, func(s Stmt) {
				seen[s] = true
				switch x := s.(type) {
				case *AssignStmt:
					exprs(x.LHS)
					exprs(x.RHS)
				case *CallStmt:
					for _, a := range x.Args {
						exprs(a)
					}
				case *IfStmt:
					exprs(x.Cond)
				case *DoStmt:
					exprs(x.From)
					exprs(x.To)
				}
			})
		}
	}
	return seen
}

// TestParseFileReturnsFreshTrees pins that ParseFile never shares: two
// parses of one text have no node in common, so a caller may edit its
// tree without touching anyone else's.
func TestParseFileReturnsFreshTrees(t *testing.T) {
	a := nodes(parseShapes(t, shapeBase))
	for n := range nodes(parseShapes(t, shapeBase)) {
		if a[n] {
			t.Fatalf("two ParseFile calls share node %#v", n)
		}
	}
}

// TestParseFileSharedKeys pins the sharing key: a subprogram whose
// module name and tokens match an earlier one's takes its node, while a
// change to the module header, the module name or the subprogram's
// line does not, and shape digests and literal lists equal a fresh
// parse's.
func TestParseFileSharedKeys(t *testing.T) {
	table := map[[32]byte]*Subprogram{}
	share := func(key [32]byte, sub *Subprogram) *Subprogram {
		if old, ok := table[key]; ok {
			return old
		}
		table[key] = sub
		return sub
	}
	parse := func(src string) *Module {
		t.Helper()
		mods, err := ParseFileShared(src, share)
		if err != nil {
			t.Fatal(err)
		}
		fresh := parseShapes(t, src)
		for i, m := range mods {
			if m.Shape != fresh[i].Shape || !reflect.DeepEqual(m, fresh[i]) {
				t.Fatalf("module %s: shared parse differs from a fresh parse", m.Name)
			}
		}
		return mods[1]
	}
	base := parse(shapeBase)
	for _, tc := range []struct {
		name string
		src  string
		same bool
	}{
		{"same text", shapeBase, true},
		{"header initializer", strings.Replace(shapeBase, "s = 1.0", "s = 1.5", 1), true},
		{"body literal", strings.Replace(shapeBase, "+ 3.0", "+ 4.0", 1), false},
		{"module name", strings.ReplaceAll(shapeBase, "module phys", "module phys2"), false},
		{"line", strings.Replace(shapeBase, "contains", "\ncontains", 1), false},
	} {
		got := parse(tc.src).Subprograms[0]
		if (got == base.Subprograms[0]) != tc.same {
			t.Errorf("%s: shared = %v, want %v", tc.name, got == base.Subprograms[0], tc.same)
		}
	}
}
