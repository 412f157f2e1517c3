package fortran

// This file defines the FortLite abstract syntax tree. The shapes
// deliberately mirror what the metagraph builder needs: references keep
// their derived-type component chains (for canonical naming) and
// name(args) forms stay ambiguous between array indexing and function
// calls until symbol tables exist (paper §4.2).

// Module is a parsed Fortran module.
type Module struct {
	Name        string
	Uses        []Use
	Types       []DerivedType
	Decls       []VarDecl
	Interfaces  []Interface
	Subprograms []*Subprogram
	Line        int
	// Shape is the module's shape digest, set by the parser. Modules
	// built by hand leave it zero and never share compiled code.
	Shape [32]byte
	// Lits lists the numeric literals of the subprogram bodies in the
	// shape walk's order, set by the parser with Shape. Their values
	// are data, not shape: two modules of equal Shape have Lits of
	// equal length whose i-th entries sit at the same place.
	Lits []*NumLit
}

// Use is a use statement. If Only is empty the whole public surface of
// the used module is imported. Renames (local => remote) appear both in
// only-lists and bare use statements.
type Use struct {
	Module string
	Only   []Rename
	Line   int
}

// Rename maps a local name to the remote (source-module) name. For
// plain imports Local == Remote.
type Rename struct {
	Local  string
	Remote string
}

// DerivedType is a Fortran derived type definition.
type DerivedType struct {
	Name   string
	Fields []VarDecl
	Line   int
}

// Intent describes a dummy argument's declared intent.
type Intent int

// Intent values. IntentUnknown means no intent clause was present; the
// metagraph treats such arguments conservatively (both directions).
const (
	IntentUnknown Intent = iota
	IntentIn
	IntentOut
	IntentInOut
)

// VarDecl declares one or more variables of a shared base type.
type VarDecl struct {
	Names    []string
	BaseType string // "real", "integer", "logical", "character", or derived type name
	IsType   bool   // true when BaseType names a derived type (type(x) :: ...)
	Array    bool   // dimension(:) attribute — applies to every name
	// ArrayFlags marks names individually declared with (:), parallel
	// to Names (nil when no name carries its own shape).
	ArrayFlags []bool
	Param      bool // parameter attribute: compile-time constant
	Intent     Intent
	Init       Expr // parameter initializer, if any
	Line       int
}

// ArrayAt reports whether the i'th declared name is an array, taking
// both the dimension attribute and per-name (:) shapes into account.
func (d *VarDecl) ArrayAt(i int) bool {
	if d.Array {
		return true
	}
	return i < len(d.ArrayFlags) && d.ArrayFlags[i]
}

// IsArrayName reports whether the named variable is declared as an
// array by this declaration.
func (d *VarDecl) IsArrayName(name string) bool {
	for i, n := range d.Names {
		if n == name {
			return d.ArrayAt(i)
		}
	}
	return false
}

// Interface is a generic interface block mapping a generic name to
// specific module procedures.
type Interface struct {
	Name       string
	Procedures []string
	Line       int
}

// SubKind distinguishes subroutines from functions.
type SubKind int

// Subprogram kinds.
const (
	KindSubroutine SubKind = iota
	KindFunction
)

// Subprogram is a subroutine or function contained in a module.
type Subprogram struct {
	Name      string
	Kind      SubKind
	Elemental bool
	Args      []string
	Result    string // function result variable ("" for subroutines; defaults to the function name)
	Decls     []VarDecl
	Body      []Stmt
	Line      int
}

// ResultVar returns the name of the function's result variable.
func (s *Subprogram) ResultVar() string {
	if s.Result != "" {
		return s.Result
	}
	return s.Name
}

// Stmt is a FortLite statement.
type Stmt interface{ stmtNode() }

// AssignStmt is lhs = rhs.
type AssignStmt struct {
	LHS  *Ref
	RHS  Expr
	Line int
}

// CallStmt is a subroutine call.
type CallStmt struct {
	Name string
	Args []Expr
	Line int
}

// IfStmt is a block or one-line if.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Line int
}

// DoStmt is a counted do loop.
type DoStmt struct {
	Var  string
	From Expr
	To   Expr
	Body []Stmt
	Line int
}

// ReturnStmt exits the enclosing subprogram.
type ReturnStmt struct{ Line int }

func (*AssignStmt) stmtNode() {}
func (*CallStmt) stmtNode()   {}
func (*IfStmt) stmtNode()     {}
func (*DoStmt) stmtNode()     {}
func (*ReturnStmt) stmtNode() {}

// Expr is a FortLite expression.
type Expr interface{ exprNode() }

// NumLit is a numeric literal.
type NumLit struct {
	Value float64
	Line  int
}

// StrLit is a character literal (used by outfld labels).
type StrLit struct {
	Value string
	Line  int
}

// Ref is a (possibly derived-type, possibly indexed/called) reference:
//
//	name
//	name(args...)            — array element OR function call (ambiguous)
//	a%b%c                    — derived-type access; Components = [b c]
//	a(i)%b%c(j)              — indexed base with component chain
//
// Args attaches to the final component. Canonical name per the paper is
// the last component (or Name when there are none).
type Ref struct {
	Name       string
	Components []string
	Args       []Expr // nil = plain reference; non-nil = name(...) form
	HasParens  bool   // true when (...) was present, even with zero args
	Line       int
}

// Canonical returns the paper's canonical name: the final component of
// a derived-type chain, or the base name.
func (r *Ref) Canonical() string {
	if len(r.Components) > 0 {
		return r.Components[len(r.Components)-1]
	}
	return r.Name
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   Kind // PLUS, MINUS, STAR, SLASH, POW, EQ, NE, LT, LE, GT, GE, AND, OR
	L, R Expr
	Line int
}

// UnaryExpr is unary minus or .not..
type UnaryExpr struct {
	Op   Kind // MINUS or NOT
	X    Expr
	Line int
}

func (*NumLit) exprNode()     {}
func (*StrLit) exprNode()     {}
func (*Ref) exprNode()        {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}

// WalkExprs applies fn to every sub-expression of e, preorder.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Ref:
		for _, a := range x.Args {
			WalkExprs(a, fn)
		}
	case *BinaryExpr:
		WalkExprs(x.L, fn)
		WalkExprs(x.R, fn)
	case *UnaryExpr:
		WalkExprs(x.X, fn)
	}
}

// WalkStmts applies fn to every statement in body, recursing into
// control-flow bodies, preorder.
func WalkStmts(body []Stmt, fn func(Stmt)) {
	for _, s := range body {
		fn(s)
		switch x := s.(type) {
		case *IfStmt:
			WalkStmts(x.Then, fn)
			WalkStmts(x.Else, fn)
		case *DoStmt:
			WalkStmts(x.Body, fn)
		}
	}
}
