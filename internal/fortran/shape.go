package fortran

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// shapeDigest hashes every AST field of m except the initializers of
// its module-level declarations and the values of the numeric literals
// in its subprogram bodies, and returns those body literals in walk
// order. Two modules with equal digests differ at most in the values
// their module-level variables start with (a perturbed `real, parameter
// :: turbcoef = 0.013`) and in the values of their statement literals
// (a `scale:` factor, a replaced constant), so they compile to the same
// code, symbol tables, cell layout and constant layout. Initializer
// presence is not shape either: `real :: w` and `real :: w = 3.0`
// have one digest, since allocation gives every declared name a cell
// whether or not it starts with a value. Line numbers count as shape,
// and so does a body literal's place. Initializers of subprogram locals
// and derived-type fields count with their values: the compiler folds
// them into code at compile time.
func shapeDigest(m *Module) (d [32]byte, lits []*NumLit) {
	s := shaper{h: sha256.New(), buf: make([]byte, 0, 4096)}
	s.module(m)
	s.h.Write(s.buf)
	s.h.Sum(d[:0])
	return d, s.lits
}

// ShapeKey combines the shape digests of a module list, in order, so
// adding, removing or reordering a module changes it. Trees of equal
// key differ at most in module-level initializer values and statement
// literal values. It is "" when some module carries no digest (it was
// built by hand rather than parsed); such trees have no shape to share.
func ShapeKey(mods []*Module) string {
	h := sha256.New()
	for _, m := range mods {
		if m.Shape == ([32]byte{}) {
			return ""
		}
		h.Write(m.Shape[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shaper serializes an AST unambiguously into a hash: every list is
// length-prefixed and every statement and expression node is tagged by
// kind. Inside a subprogram body (inBody) a numeric literal
// contributes its tag and line and is appended to lits instead of
// hashing its value.
type shaper struct {
	h      hash.Hash
	buf    []byte
	inBody bool
	lits   []*NumLit
}

// spill hands the buffered bytes to the hash once the buffer is mostly
// full, so a digest costs one buffer however large the module.
func (s *shaper) spill() {
	if len(s.buf) >= 3072 {
		s.h.Write(s.buf)
		s.buf = s.buf[:0]
	}
}

func (s *shaper) n(v int)      { s.buf = binary.AppendVarint(s.buf, int64(v)) }
func (s *shaper) tag(t byte)   { s.buf = append(s.buf, t) }
func (s *shaper) str(v string) { s.n(len(v)); s.buf = append(s.buf, v...) }

func (s *shaper) flag(v bool) {
	if v {
		s.tag(1)
	} else {
		s.tag(0)
	}
}

func (s *shaper) strs(vs []string) {
	s.n(len(vs))
	for _, v := range vs {
		s.str(v)
	}
}

func (s *shaper) module(m *Module) {
	s.str(m.Name)
	s.n(m.Line)
	s.n(len(m.Uses))
	for _, u := range m.Uses {
		s.str(u.Module)
		s.n(u.Line)
		s.n(len(u.Only))
		for _, r := range u.Only {
			s.str(r.Local)
			s.str(r.Remote)
		}
	}
	s.n(len(m.Types))
	for _, t := range m.Types {
		s.str(t.Name)
		s.n(t.Line)
		s.decls(t.Fields, true)
	}
	s.decls(m.Decls, false)
	s.n(len(m.Interfaces))
	for _, iface := range m.Interfaces {
		s.str(iface.Name)
		s.strs(iface.Procedures)
		s.n(iface.Line)
	}
	s.n(len(m.Subprograms))
	for _, sub := range m.Subprograms {
		s.str(sub.Name)
		s.n(int(sub.Kind))
		s.flag(sub.Elemental)
		s.strs(sub.Args)
		s.str(sub.Result)
		s.decls(sub.Decls, true)
		s.inBody = true
		s.stmts(sub.Body)
		s.inBody = false
		s.n(sub.Line)
	}
}

func (s *shaper) decls(ds []VarDecl, withInit bool) {
	s.n(len(ds))
	for i := range ds {
		s.spill()
		d := &ds[i]
		s.strs(d.Names)
		s.str(d.BaseType)
		s.flag(d.IsType)
		s.flag(d.Array)
		s.n(len(d.ArrayFlags))
		for _, f := range d.ArrayFlags {
			s.flag(f)
		}
		s.flag(d.Param)
		s.n(int(d.Intent))
		s.n(d.Line)
		if withInit {
			s.expr(d.Init)
		}
	}
}

func (s *shaper) stmts(body []Stmt) {
	s.n(len(body))
	for _, st := range body {
		s.spill()
		switch x := st.(type) {
		case *AssignStmt:
			s.tag('a')
			s.expr(x.LHS)
			s.expr(x.RHS)
			s.n(x.Line)
		case *CallStmt:
			s.tag('c')
			s.str(x.Name)
			s.exprs(x.Args)
			s.n(x.Line)
		case *IfStmt:
			s.tag('i')
			s.expr(x.Cond)
			s.stmts(x.Then)
			s.stmts(x.Else)
			s.n(x.Line)
		case *DoStmt:
			s.tag('d')
			s.str(x.Var)
			s.expr(x.From)
			s.expr(x.To)
			s.stmts(x.Body)
			s.n(x.Line)
		case *ReturnStmt:
			s.tag('r')
			s.n(x.Line)
		default:
			s.tag(0)
		}
	}
}

func (s *shaper) exprs(es []Expr) {
	s.n(len(es))
	for _, e := range es {
		s.expr(e)
	}
}

func (s *shaper) expr(e Expr) {
	s.spill()
	switch x := e.(type) {
	case *NumLit:
		s.tag('n')
		if s.inBody {
			s.lits = append(s.lits, x)
		} else {
			s.buf = binary.LittleEndian.AppendUint64(s.buf, math.Float64bits(x.Value))
		}
		s.n(x.Line)
	case *StrLit:
		s.tag('s')
		s.str(x.Value)
		s.n(x.Line)
	case *Ref:
		s.tag('R')
		s.str(x.Name)
		s.strs(x.Components)
		// A nil Args is a plain reference, a non-nil one a name(...)
		// form, even when empty.
		s.flag(x.Args != nil)
		s.exprs(x.Args)
		s.flag(x.HasParens)
		s.n(x.Line)
	case *BinaryExpr:
		s.tag('b')
		s.n(int(x.Op))
		s.expr(x.L)
		s.expr(x.R)
		s.n(x.Line)
	case *UnaryExpr:
		s.tag('u')
		s.n(int(x.Op))
		s.expr(x.X)
		s.n(x.Line)
	default:
		s.tag(0)
	}
}
