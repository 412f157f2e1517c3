package fortran

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
)

// Parser is a recursive-descent parser for FortLite.
type Parser struct {
	toks []Token
	pos  int
	// share, when set, picks the node a module keeps for each parsed
	// subprogram (ParseFileShared); keyBuf is its reused key buffer.
	share  func(key [32]byte, sub *Subprogram) *Subprogram
	keyBuf []byte
}

// ParseFile lexes and parses src, returning every module it contains.
// Every call returns a fresh tree that shares no node with any other.
func ParseFile(src string) ([]*Module, error) {
	return ParseFileShared(src, nil)
}

// ParseFileShared parses src like ParseFile, except that each parsed
// subprogram is passed to share, and the module keeps the node share
// returns: the fresh one, or an equal one parsed earlier. key is the
// SHA-256 of the enclosing module's name and exactly the tokens the
// subprogram was parsed from (kind, text and line of each), so equal
// keys mean equal subtrees, and subprograms of differently named
// modules never share a key. Module headers (uses, types, declarations
// and their initializers, interfaces) are always fresh, and Shape and
// Lits are computed over the kept subprograms, with the values a fresh
// parse gives. A caller that shares nodes across trees must treat every
// tree it returns as immutable. A nil share keeps every fresh node.
func ParseFileShared(src string, share func(key [32]byte, sub *Subprogram) *Subprogram) ([]*Module, error) {
	toks, err := NewLexer(src).Tokens()
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks, share: share}
	var mods []*Module
	p.skipNewlines()
	for !p.at(EOF) {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		m.Shape, m.Lits = shapeDigest(m)
		mods = append(mods, m)
		p.skipNewlines()
	}
	return mods, nil
}

// WithInit returns a shallow copy of m whose module-level declaration
// at line is re-parsed from text, that line's new source. The new
// declaration must differ from the old one at most in its initializer,
// which is not shape, so the copy keeps m's Shape and Lits and shares
// every other node with m: its uses, types, interfaces, subprograms and
// other declarations. The copy equals what ParseFile gives for m's
// source with that line replaced by text. Like a shared parse, m and
// the copy must be treated as immutable.
func WithInit(m *Module, line int, text string) (*Module, error) {
	i := slices.IndexFunc(m.Decls, func(d VarDecl) bool { return d.Line == line })
	if i < 0 {
		return nil, fmt.Errorf("fortran: line %d: no module-level declaration in %s", line, m.Name)
	}
	toks, err := (&Lexer{src: text, line: line}).Tokens()
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	if !p.atDeclStart() {
		return nil, p.errorf("expected a declaration, found %s", p.cur())
	}
	d, err := p.parseVarDecl()
	if err != nil {
		return nil, err
	}
	if !p.at(EOF) {
		return nil, p.errorf("unexpected %s after the declaration", p.cur())
	}
	old := m.Decls[i]
	if !slices.Equal(d.Names, old.Names) || d.BaseType != old.BaseType || d.IsType != old.IsType ||
		d.Array != old.Array || !slices.Equal(d.ArrayFlags, old.ArrayFlags) || d.Param != old.Param ||
		d.Intent != old.Intent {
		return nil, fmt.Errorf("fortran: line %d: new declaration differs beyond its initializer", line)
	}
	out := *m
	out.Decls = slices.Clone(m.Decls)
	out.Decls[i] = d
	return &out, nil
}

// ParseModule parses a source string expected to contain exactly one
// module.
func ParseModule(src string) (*Module, error) {
	mods, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	if len(mods) != 1 {
		return nil, fmt.Errorf("fortran: expected 1 module, found %d", len(mods))
	}
	return mods[0], nil
}

func (p *Parser) cur() Token     { return p.toks[p.pos] }
func (p *Parser) at(k Kind) bool { return p.toks[p.pos].Kind == k }

func (p *Parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == IDENT && t.Text == kw
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *Parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errorf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errorf("expected %q, found %s", kw, p.cur())
	}
	p.next()
	return nil
}

func (p *Parser) expectIdent() (Token, error) {
	if !p.at(IDENT) {
		return Token{}, p.errorf("expected identifier, found %s", p.cur())
	}
	return p.next(), nil
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("fortran: line %d: %s", p.cur().Line, fmt.Sprintf(format, args...))
}

func (p *Parser) skipNewlines() {
	for p.at(NEWLINE) {
		p.next()
	}
}

func (p *Parser) endOfStmt() error {
	if p.at(EOF) {
		return nil
	}
	if _, err := p.expect(NEWLINE); err != nil {
		return err
	}
	p.skipNewlines()
	return nil
}

var typeKeywords = map[string]bool{
	"real": true, "integer": true, "logical": true, "character": true,
}

func (p *Parser) parseModule() (*Module, error) {
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m := &Module{Name: nameTok.Text, Line: nameTok.Line}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	// Specification part.
	for {
		switch {
		case p.atKeyword("use"):
			u, err := p.parseUse()
			if err != nil {
				return nil, err
			}
			m.Uses = append(m.Uses, u)
		case p.atKeyword("implicit"):
			p.next()
			if err := p.expectKeyword("none"); err != nil {
				return nil, err
			}
			if err := p.endOfStmt(); err != nil {
				return nil, err
			}
		case p.atKeyword("private") || p.atKeyword("public") || p.atKeyword("save"):
			// Visibility/save statements are accepted and ignored.
			p.next()
			for !p.at(NEWLINE) && !p.at(EOF) {
				p.next()
			}
			if err := p.endOfStmt(); err != nil {
				return nil, err
			}
		case p.atKeyword("type") && p.peekIsTypeDef():
			dt, err := p.parseDerivedType()
			if err != nil {
				return nil, err
			}
			m.Types = append(m.Types, dt)
		case p.atKeyword("interface"):
			iface, err := p.parseInterface()
			if err != nil {
				return nil, err
			}
			m.Interfaces = append(m.Interfaces, iface)
		case p.atDeclStart():
			d, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			m.Decls = append(m.Decls, d)
		default:
			goto containsPart
		}
	}
containsPart:
	if p.atKeyword("contains") {
		p.next()
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		for p.atKeyword("subroutine") || p.atKeyword("function") || p.atKeyword("elemental") {
			start := p.pos
			sub, err := p.parseSubprogram()
			if err != nil {
				return nil, err
			}
			if p.share != nil {
				sub = p.share(p.subprogramKey(m.Name, p.toks[start:p.pos]), sub)
			}
			m.Subprograms = append(m.Subprograms, sub)
		}
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	if p.atKeyword("module") {
		p.next()
		if p.at(IDENT) {
			p.next()
		}
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	return m, nil
}

// subprogramKey serializes the module name and the subprogram's tokens
// unambiguously (every string length-prefixed) into one buffer and
// hashes it in a single call.
func (p *Parser) subprogramKey(module string, toks []Token) [32]byte {
	b := binary.AppendUvarint(p.keyBuf[:0], uint64(len(module)))
	b = append(b, module...)
	for _, t := range toks {
		b = binary.AppendUvarint(b, uint64(t.Kind))
		b = binary.AppendUvarint(b, uint64(len(t.Text)))
		b = append(b, t.Text...)
		b = binary.AppendUvarint(b, uint64(t.Line))
	}
	p.keyBuf = b
	return sha256.Sum256(b)
}

// peekIsTypeDef distinguishes `type foo` / `type :: foo` (definition)
// from `type(foo) :: x` (declaration).
func (p *Parser) peekIsTypeDef() bool {
	nxt := p.toks[p.pos+1]
	return nxt.Kind == IDENT || nxt.Kind == DCOLON
}

func (p *Parser) atDeclStart() bool {
	if p.atKeyword("type") && !p.peekIsTypeDef() {
		return true
	}
	return p.at(IDENT) && typeKeywords[p.cur().Text]
}

func (p *Parser) parseUse() (Use, error) {
	tok := p.next() // 'use'
	name, err := p.expectIdent()
	if err != nil {
		return Use{}, err
	}
	u := Use{Module: name.Text, Line: tok.Line}
	if p.at(COMMA) {
		p.next()
		if p.atKeyword("only") {
			p.next()
			if _, err := p.expect(COLON); err != nil {
				return Use{}, err
			}
		}
		for {
			local, err := p.expectIdent()
			if err != nil {
				return Use{}, err
			}
			r := Rename{Local: local.Text, Remote: local.Text}
			if p.at(ARROW) {
				p.next()
				remote, err := p.expectIdent()
				if err != nil {
					return Use{}, err
				}
				r.Remote = remote.Text
			}
			u.Only = append(u.Only, r)
			if !p.at(COMMA) {
				break
			}
			p.next()
		}
	}
	return u, p.endOfStmt()
}

func (p *Parser) parseDerivedType() (DerivedType, error) {
	tok := p.next() // 'type'
	if p.at(DCOLON) {
		p.next()
	}
	name, err := p.expectIdent()
	if err != nil {
		return DerivedType{}, err
	}
	dt := DerivedType{Name: name.Text, Line: tok.Line}
	if err := p.endOfStmt(); err != nil {
		return DerivedType{}, err
	}
	for !p.atKeyword("end") {
		d, err := p.parseVarDecl()
		if err != nil {
			return DerivedType{}, err
		}
		dt.Fields = append(dt.Fields, d)
	}
	p.next() // 'end'
	if p.atKeyword("type") {
		p.next()
		if p.at(IDENT) {
			p.next()
		}
	}
	return dt, p.endOfStmt()
}

func (p *Parser) parseInterface() (Interface, error) {
	tok := p.next() // 'interface'
	name, err := p.expectIdent()
	if err != nil {
		return Interface{}, err
	}
	iface := Interface{Name: name.Text, Line: tok.Line}
	if err := p.endOfStmt(); err != nil {
		return Interface{}, err
	}
	for p.atKeyword("module") {
		p.next()
		if err := p.expectKeyword("procedure"); err != nil {
			return Interface{}, err
		}
		for {
			proc, err := p.expectIdent()
			if err != nil {
				return Interface{}, err
			}
			iface.Procedures = append(iface.Procedures, proc.Text)
			if !p.at(COMMA) {
				break
			}
			p.next()
		}
		if err := p.endOfStmt(); err != nil {
			return Interface{}, err
		}
	}
	if err := p.expectKeyword("end"); err != nil {
		return Interface{}, err
	}
	if p.atKeyword("interface") {
		p.next()
		if p.at(IDENT) {
			p.next()
		}
	}
	return iface, p.endOfStmt()
}

// parseVarDecl parses declarations like:
//
//	real :: a, b(:), c
//	real(r8), parameter :: tboil = 373.16
//	integer, intent(in) :: n
//	type(physstate) :: state
//	real, dimension(:) :: q
func (p *Parser) parseVarDecl() (VarDecl, error) {
	tok := p.cur()
	d := VarDecl{Line: tok.Line}
	switch {
	case p.atKeyword("type"):
		p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return d, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return d, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return d, err
		}
		d.BaseType = name.Text
		d.IsType = true
	default:
		d.BaseType = p.next().Text
		// Optional kind spec: real(r8), character(len=...): skip the
		// parenthesized blob.
		if p.at(LPAREN) {
			depth := 0
			for {
				t := p.next()
				if t.Kind == LPAREN {
					depth++
				} else if t.Kind == RPAREN {
					depth--
					if depth == 0 {
						break
					}
				} else if t.Kind == EOF {
					return d, p.errorf("unterminated kind spec")
				}
			}
		}
	}
	// Attributes.
	for p.at(COMMA) {
		p.next()
		attr, err := p.expectIdent()
		if err != nil {
			return d, err
		}
		switch attr.Text {
		case "parameter":
			d.Param = true
		case "intent":
			if _, err := p.expect(LPAREN); err != nil {
				return d, err
			}
			which, err := p.expectIdent()
			if err != nil {
				return d, err
			}
			switch which.Text {
			case "in":
				d.Intent = IntentIn
			case "out":
				d.Intent = IntentOut
			case "inout":
				d.Intent = IntentInOut
			default:
				return d, p.errorf("bad intent %q", which.Text)
			}
			if _, err := p.expect(RPAREN); err != nil {
				return d, err
			}
		case "dimension":
			if _, err := p.expect(LPAREN); err != nil {
				return d, err
			}
			if _, err := p.expect(COLON); err != nil {
				return d, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return d, err
			}
			d.Array = true
		case "public", "private", "save", "allocatable", "pointer", "target":
			// Accepted and ignored.
		default:
			return d, p.errorf("unknown attribute %q", attr.Text)
		}
	}
	if _, err := p.expect(DCOLON); err != nil {
		return d, err
	}
	for {
		name, err := p.expectIdent()
		if err != nil {
			return d, err
		}
		d.Names = append(d.Names, name.Text)
		d.ArrayFlags = append(d.ArrayFlags, false)
		if p.at(LPAREN) {
			p.next()
			if _, err := p.expect(COLON); err != nil {
				return d, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return d, err
			}
			d.ArrayFlags[len(d.ArrayFlags)-1] = true
		}
		if p.at(ASSIGN) {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return d, err
			}
			d.Init = e
		}
		if !p.at(COMMA) {
			break
		}
		p.next()
	}
	return d, p.endOfStmt()
}

func (p *Parser) parseSubprogram() (*Subprogram, error) {
	sub := &Subprogram{Line: p.cur().Line}
	if p.atKeyword("elemental") {
		sub.Elemental = true
		p.next()
	}
	switch {
	case p.atKeyword("subroutine"):
		p.next()
		sub.Kind = KindSubroutine
	case p.atKeyword("function"):
		p.next()
		sub.Kind = KindFunction
	default:
		return nil, p.errorf("expected subroutine or function")
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	sub.Name = name.Text
	if p.at(LPAREN) {
		p.next()
		for !p.at(RPAREN) {
			arg, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			sub.Args = append(sub.Args, arg.Text)
			if p.at(COMMA) {
				p.next()
			}
		}
		p.next() // ')'
	}
	if sub.Kind == KindFunction && p.atKeyword("result") {
		p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		res, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		sub.Result = res.Text
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	// Local declarations.
	for p.atDeclStart() || p.atKeyword("implicit") {
		if p.atKeyword("implicit") {
			p.next()
			if err := p.expectKeyword("none"); err != nil {
				return nil, err
			}
			if err := p.endOfStmt(); err != nil {
				return nil, err
			}
			continue
		}
		d, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		sub.Decls = append(sub.Decls, d)
	}
	body, err := p.parseStmts(func() bool { return p.atKeyword("end") })
	if err != nil {
		return nil, err
	}
	sub.Body = body
	p.next() // 'end'
	if p.atKeyword("subroutine") || p.atKeyword("function") {
		p.next()
		if p.at(IDENT) {
			p.next()
		}
	}
	return sub, p.endOfStmt()
}

// parseStmts parses statements until stop() reports the terminator is
// current.
func (p *Parser) parseStmts(stop func() bool) ([]Stmt, error) {
	var out []Stmt
	for !stop() {
		if p.at(EOF) {
			return nil, p.errorf("unexpected EOF in statement block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch {
	case p.atKeyword("call"):
		return p.parseCall()
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("do"):
		return p.parseDo()
	case p.atKeyword("return"):
		line := p.next().Line
		return &ReturnStmt{Line: line}, p.endOfStmt()
	case p.at(IDENT):
		return p.parseAssign()
	}
	return nil, p.errorf("unexpected token %s at statement start", p.cur())
}

func (p *Parser) parseCall() (Stmt, error) {
	tok := p.next() // 'call'
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	c := &CallStmt{Name: name.Text, Line: tok.Line}
	if p.at(LPAREN) {
		p.next()
		for !p.at(RPAREN) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Args = append(c.Args, e)
			if p.at(COMMA) {
				p.next()
			}
		}
		p.next()
	}
	return c, p.endOfStmt()
}

func (p *Parser) parseIf() (Stmt, error) {
	tok := p.next() // 'if'
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Line: tok.Line}
	if p.atKeyword("then") {
		p.next()
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		thenBody, err := p.parseStmts(func() bool {
			return p.atKeyword("end") || p.atKeyword("else") || p.atKeyword("elseif")
		})
		if err != nil {
			return nil, err
		}
		s.Then = thenBody
		for {
			switch {
			case p.atKeyword("elseif"):
				p.next()
				nested, err := p.parseElseIfTail()
				if err != nil {
					return nil, err
				}
				s.Else = []Stmt{nested}
				return s, nil
			case p.atKeyword("else"):
				p.next()
				if p.atKeyword("if") {
					p.next()
					nested, err := p.parseElseIfTail()
					if err != nil {
						return nil, err
					}
					s.Else = []Stmt{nested}
					return s, nil
				}
				if err := p.endOfStmt(); err != nil {
					return nil, err
				}
				elseBody, err := p.parseStmts(func() bool { return p.atKeyword("end") })
				if err != nil {
					return nil, err
				}
				s.Else = elseBody
			case p.atKeyword("end"):
				p.next()
				if err := p.expectKeyword("if"); err != nil {
					return nil, err
				}
				return s, p.endOfStmt()
			default:
				return nil, p.errorf("expected else/end if, found %s", p.cur())
			}
		}
	}
	// One-line if: a single simple statement.
	inner, err := p.parseSimpleStmtNoNewline()
	if err != nil {
		return nil, err
	}
	s.Then = []Stmt{inner}
	return s, p.endOfStmt()
}

// parseElseIfTail parses the `(cond) then ... end if` remainder of an
// else-if chain as a nested IfStmt; it consumes the final `end if`.
func (p *Parser) parseElseIfTail() (*IfStmt, error) {
	line := p.cur().Line
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("then"); err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Line: line}
	thenBody, err := p.parseStmts(func() bool {
		return p.atKeyword("end") || p.atKeyword("else") || p.atKeyword("elseif")
	})
	if err != nil {
		return nil, err
	}
	s.Then = thenBody
	switch {
	case p.atKeyword("elseif"):
		p.next()
		nested, err := p.parseElseIfTail()
		if err != nil {
			return nil, err
		}
		s.Else = []Stmt{nested}
		return s, nil
	case p.atKeyword("else"):
		p.next()
		if p.atKeyword("if") {
			p.next()
			nested, err := p.parseElseIfTail()
			if err != nil {
				return nil, err
			}
			s.Else = []Stmt{nested}
			return s, nil
		}
		if err := p.endOfStmt(); err != nil {
			return nil, err
		}
		elseBody, err := p.parseStmts(func() bool { return p.atKeyword("end") })
		if err != nil {
			return nil, err
		}
		s.Else = elseBody
		fallthrough
	default:
		p.next() // 'end'
		if err := p.expectKeyword("if"); err != nil {
			return nil, err
		}
		return s, p.endOfStmt()
	}
}

// parseSimpleStmtNoNewline parses the body of a one-line if (assignment,
// call, or return) without consuming the trailing newline.
func (p *Parser) parseSimpleStmtNoNewline() (Stmt, error) {
	switch {
	case p.atKeyword("call"):
		tok := p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		c := &CallStmt{Name: name.Text, Line: tok.Line}
		if p.at(LPAREN) {
			p.next()
			for !p.at(RPAREN) {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				c.Args = append(c.Args, e)
				if p.at(COMMA) {
					p.next()
				}
			}
			p.next()
		}
		return c, nil
	case p.atKeyword("return"):
		return &ReturnStmt{Line: p.next().Line}, nil
	case p.at(IDENT):
		lhs, err := p.parseRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lhs, RHS: rhs, Line: lhs.Line}, nil
	}
	return nil, p.errorf("bad one-line if body at %s", p.cur())
}

func (p *Parser) parseDo() (Stmt, error) {
	tok := p.next() // 'do'
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	to, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.endOfStmt(); err != nil {
		return nil, err
	}
	body, err := p.parseStmts(func() bool { return p.atKeyword("end") })
	if err != nil {
		return nil, err
	}
	p.next() // 'end'
	if err := p.expectKeyword("do"); err != nil {
		return nil, err
	}
	return &DoStmt{Var: v.Text, From: from, To: to, Body: body, Line: tok.Line}, p.endOfStmt()
}

func (p *Parser) parseAssign() (Stmt, error) {
	lhs, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{LHS: lhs, RHS: rhs, Line: lhs.Line}, p.endOfStmt()
}

// parseRef parses name, name(args), a%b(i)%c forms.
func (p *Parser) parseRef() (*Ref, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	r := &Ref{Name: name.Text, Line: name.Line}
	parseArgs := func() ([]Expr, bool, error) {
		if !p.at(LPAREN) {
			return nil, false, nil
		}
		p.next()
		var args []Expr
		for !p.at(RPAREN) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, false, err
			}
			args = append(args, e)
			if p.at(COMMA) {
				p.next()
			}
		}
		p.next()
		return args, true, nil
	}
	args, had, err := parseArgs()
	if err != nil {
		return nil, err
	}
	r.Args, r.HasParens = args, had
	for p.at(PERCENT) {
		p.next()
		comp, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		r.Components = append(r.Components, comp.Text)
		// Indexing may attach to any component; only the final one's
		// args are retained (indices are atomic per the paper).
		args, had, err := parseArgs()
		if err != nil {
			return nil, err
		}
		if had {
			r.Args, r.HasParens = args, true
		}
	}
	return r, nil
}

// Expression grammar: or → and → cmp → add → mul → unary → power → primary.

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(OR) {
		tok := p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OR, L: l, R: r, Line: tok.Line}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.at(AND) {
		tok := p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: AND, L: l, R: r, Line: tok.Line}
	}
	return l, nil
}

func (p *Parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case EQ, NE, LT, LE, GT, GE:
		tok := p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: tok.Kind, L: l, R: r, Line: tok.Line}, nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(PLUS) || p.at(MINUS) {
		tok := p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: tok.Kind, L: l, R: r, Line: tok.Line}
	}
	return l, nil
}

func (p *Parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(STAR) || p.at(SLASH) {
		tok := p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: tok.Kind, L: l, R: r, Line: tok.Line}
	}
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.at(MINUS) || p.at(NOT) {
		tok := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: tok.Kind, X: x, Line: tok.Line}, nil
	}
	if p.at(PLUS) {
		p.next()
		return p.parseUnary()
	}
	return p.parsePower()
}

func (p *Parser) parsePower() (Expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.at(POW) {
		tok := p.next()
		// Exponentiation is right-associative.
		exp, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: POW, L: base, R: exp, Line: tok.Line}, nil
	}
	return base, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch {
	case p.at(NUMBER):
		tok := p.next()
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, p.errorf("bad number %q: %v", tok.Text, err)
		}
		return &NumLit{Value: v, Line: tok.Line}, nil
	case p.at(STRING):
		tok := p.next()
		return &StrLit{Value: tok.Text, Line: tok.Line}, nil
	case p.at(LPAREN):
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case p.at(IDENT):
		return p.parseRef()
	}
	return nil, p.errorf("unexpected token %s in expression", p.cur())
}
