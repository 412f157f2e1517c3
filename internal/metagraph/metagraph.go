// Package metagraph compiles FortLite modules into the directed graph
// of variable dependencies described in §4 of Milroy et al. (HPDC
// 2019): nodes are variables appearing in assignment statements (with
// module/subprogram/line metadata and derived-type canonical names) and
// edges express "value of X affects value of Y" through assignments,
// function and subroutine argument mappings, generic interfaces, use
// statements (with renames and only-lists), and localized intrinsics.
package metagraph

import (
	"fmt"
	"sort"

	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/graph"
)

// Node is the metadata attached to one digraph node.
type Node struct {
	// Key uniquely identifies the node: module::subprogram::canonical
	// (subprogram empty for module-level variables).
	Key string
	// Display is the paper-style name, e.g. "dum__micro_mg_tend".
	Display string
	// Canonical is the variable name before uniquification — for
	// derived types, the final component (paper §4.2).
	Canonical  string
	Module     string
	Subprogram string // "" for module-level variables
	Line       int    // first line the variable was seen on
	Intrinsic  bool   // true for localized intrinsic nodes (min_104__mod)
}

// Metagraph is the digraph plus metadata and symbol tables.
type Metagraph struct {
	G     *graph.Digraph
	Nodes []Node

	byKey map[string]int
	// byCanonical maps canonical names to all node ids sharing them —
	// the lookup slicing uses to find path targets (§5.1).
	byCanonical map[string][]int
	// OutputMap maps outfld labels (as written to history files) to the
	// canonical name of the internal variable passed to the call — the
	// instrumentation of §5.1 that links file outputs to code.
	OutputMap map[string]string
	// Unparsed counts assignment statements the builder could not
	// process (the paper reports 10 of 660k lines).
	Unparsed int

	// modules lists the compiled modules' names, sorted — all that
	// outlives Build of its per-module symbol tables.
	modules []string
}

// builder holds the per-module symbol tables Build resolves names
// through. None of it outlives Build, so a Metagraph holds neither the
// tables nor the AST nodes they point into.
type builder struct {
	mg     *Metagraph
	scopes map[string]*moduleScope
}

// moduleScope holds per-module symbol tables.
type moduleScope struct {
	mod *fortran.Module
	// vars maps a locally visible module-level name to its node key
	// (which may live in another module via use).
	vars map[string]string
	// funcs and subs map locally visible procedure names to candidate
	// targets (module, subprogram). Interfaces fan out to several.
	funcs map[string][]procTarget
	subs  map[string][]procTarget
	// arrays marks locally visible module-level array variables, used
	// to disambiguate name(args) forms.
	arrays map[string]bool
}

type procTarget struct {
	module string
	sub    *fortran.Subprogram
}

// intrinsics recognized as value-transforming built-ins; they become
// localized nodes rather than shared hubs (§4.2).
var intrinsics = map[string]bool{
	"min": true, "max": true, "abs": true, "sqrt": true, "exp": true,
	"log": true, "sum": true, "size": true, "mod": true, "shift": true,
	"sign": true, "floor": true,
}

// Build compiles modules into a Metagraph. Modules must have unique
// names; use statements referencing unknown modules are ignored (the
// coverage filter legitimately removes whole modules).
func Build(modules []*fortran.Module) (*Metagraph, error) {
	mg := &Metagraph{
		G:           graph.New(1024),
		byKey:       make(map[string]int, 4096),
		byCanonical: make(map[string][]int, 4096),
		OutputMap:   make(map[string]string),
		modules:     make([]string, 0, len(modules)),
	}
	b := &builder{mg: mg, scopes: make(map[string]*moduleScope, len(modules))}
	for _, m := range modules {
		if _, dup := b.scopes[m.Name]; dup {
			return nil, fmt.Errorf("metagraph: duplicate module %q", m.Name)
		}
		mg.modules = append(mg.modules, m.Name)
		b.scopes[m.Name] = &moduleScope{
			mod:    m,
			vars:   make(map[string]string),
			funcs:  make(map[string][]procTarget),
			subs:   make(map[string][]procTarget),
			arrays: make(map[string]bool),
		}
	}
	// Pass 1: own declarations (module vars, own procedures, own
	// interfaces). Must complete before use resolution.
	for _, m := range modules {
		b.declareOwn(m)
	}
	// Pass 2: use statements (renames, only-lists, whole-module
	// imports). Chained use is deliberately not followed (§4.2): each
	// use statement is connected independently.
	for _, m := range modules {
		b.resolveUses(m)
	}
	// Pass 3: process all statements now that the function hash tables
	// exist (the paper defers call parsing until all files are read).
	for _, m := range modules {
		for _, sub := range m.Subprograms {
			b.processSubprogram(m, sub)
		}
	}
	sort.Strings(mg.modules)
	return mg, nil
}

func key(module, sub, canonical string) string {
	return module + "::" + sub + "::" + canonical
}

// node interns the node for (module, sub, canonical), creating it on
// first use.
func (mg *Metagraph) node(module, sub, canonical string, line int, intrinsic bool) int {
	k := key(module, sub, canonical)
	if id, ok := mg.byKey[k]; ok {
		return id
	}
	id := mg.G.AddNode()
	display := canonical
	if sub != "" {
		display = canonical + "__" + sub
	} else {
		display = canonical + "__" + module
	}
	mg.Nodes = append(mg.Nodes, Node{
		Key: k, Display: display, Canonical: canonical,
		Module: module, Subprogram: sub, Line: line, Intrinsic: intrinsic,
	})
	mg.byKey[k] = id
	if !intrinsic {
		mg.byCanonical[canonical] = append(mg.byCanonical[canonical], id)
	}
	return id
}

// nodeByKey returns the interned id for a fully resolved key, creating
// the node from the key's parts if needed.
func (mg *Metagraph) nodeByKeyParts(k string, line int) int {
	if id, ok := mg.byKey[k]; ok {
		return id
	}
	// Parse module::sub::canonical back out.
	var module, sub, canon string
	first, rest := split2(k)
	module = first
	sub, canon = split2(rest)
	return mg.node(module, sub, canon, line, false)
}

func split2(s string) (string, string) {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == ':' && s[i+1] == ':' {
			return s[:i], s[i+2:]
		}
	}
	return s, ""
}

func (b *builder) declareOwn(m *fortran.Module) {
	sc := b.scopes[m.Name]
	for _, d := range m.Decls {
		for i, n := range d.Names {
			sc.vars[n] = key(m.Name, "", n)
			if d.ArrayAt(i) {
				sc.arrays[n] = true
			}
		}
	}
	for _, sub := range m.Subprograms {
		t := procTarget{module: m.Name, sub: sub}
		if sub.Kind == fortran.KindFunction {
			sc.funcs[sub.Name] = append(sc.funcs[sub.Name], t)
		} else {
			sc.subs[sub.Name] = append(sc.subs[sub.Name], t)
		}
	}
	for _, iface := range m.Interfaces {
		for _, proc := range iface.Procedures {
			// Interface procedures resolve within the defining module;
			// the generic name maps to every candidate (conservative
			// all-possible-connections handling, §4.2).
			for _, sub := range m.Subprograms {
				if sub.Name != proc {
					continue
				}
				t := procTarget{module: m.Name, sub: sub}
				if sub.Kind == fortran.KindFunction {
					sc.funcs[iface.Name] = append(sc.funcs[iface.Name], t)
				} else {
					sc.subs[iface.Name] = append(sc.subs[iface.Name], t)
				}
			}
		}
	}
}

func (b *builder) resolveUses(m *fortran.Module) {
	sc := b.scopes[m.Name]
	for _, u := range m.Uses {
		src, ok := b.scopes[u.Module]
		if !ok {
			continue // module compiled out (coverage/config filtering)
		}
		imports := u.Only
		if len(imports) == 0 {
			// Whole-surface import: all module vars and procedures
			// declared in (not imported by) the source module.
			for _, d := range src.mod.Decls {
				for _, n := range d.Names {
					imports = append(imports, fortran.Rename{Local: n, Remote: n})
				}
			}
			for _, sub := range src.mod.Subprograms {
				imports = append(imports, fortran.Rename{Local: sub.Name, Remote: sub.Name})
			}
			for _, iface := range src.mod.Interfaces {
				imports = append(imports, fortran.Rename{Local: iface.Name, Remote: iface.Name})
			}
		}
		for _, r := range imports {
			// Variable import: map local name to the source module's
			// node key so both modules share one node.
			if vk, ok := src.ownVarKey(r.Remote); ok {
				if _, shadowed := sc.vars[r.Local]; !shadowed {
					sc.vars[r.Local] = vk
				}
				if src.arrays[r.Remote] {
					sc.arrays[r.Local] = true
				}
			}
			if fs := src.ownFuncs(r.Remote); len(fs) > 0 {
				sc.funcs[r.Local] = append(sc.funcs[r.Local], fs...)
			}
			if ss := src.ownSubs(r.Remote); len(ss) > 0 {
				sc.subs[r.Local] = append(sc.subs[r.Local], ss...)
			}
		}
	}
}

// ownVarKey reports the node key of a variable declared in this module
// itself (not re-exported imports — chained use is not followed).
func (sc *moduleScope) ownVarKey(name string) (string, bool) {
	for _, d := range sc.mod.Decls {
		for _, n := range d.Names {
			if n == name {
				return key(sc.mod.Name, "", n), true
			}
		}
	}
	return "", false
}

func (sc *moduleScope) ownFuncs(name string) []procTarget {
	var out []procTarget
	for _, t := range sc.funcs[name] {
		if t.module == sc.mod.Name {
			out = append(out, t)
		}
	}
	return out
}

func (sc *moduleScope) ownSubs(name string) []procTarget {
	var out []procTarget
	for _, t := range sc.subs[name] {
		if t.module == sc.mod.Name {
			out = append(out, t)
		}
	}
	return out
}

// scope is the name-resolution environment inside one subprogram.
type scope struct {
	mg      *Metagraph
	modName string
	sub     *fortran.Subprogram
	locals  map[string]bool // declared locals and dummy args
	arrays  map[string]bool
	msc     *moduleScope
}

func (b *builder) newScope(m *fortran.Module, sub *fortran.Subprogram) *scope {
	s := &scope{
		mg:      b.mg,
		modName: m.Name,
		sub:     sub,
		locals:  make(map[string]bool),
		arrays:  make(map[string]bool),
		msc:     b.scopes[m.Name],
	}
	for _, a := range sub.Args {
		s.locals[a] = true
	}
	for _, d := range sub.Decls {
		for i, n := range d.Names {
			s.locals[n] = true
			if d.ArrayAt(i) {
				s.arrays[n] = true
			}
		}
	}
	if sub.Kind == fortran.KindFunction {
		s.locals[sub.ResultVar()] = true
	}
	return s
}

// resolveVar returns the node id for a plain variable reference.
func (s *scope) resolveVar(r *fortran.Ref) int {
	canon := r.Canonical()
	if s.locals[r.Name] {
		return s.mg.node(s.modName, s.sub.Name, canon, r.Line, false)
	}
	if vk, ok := s.msc.vars[r.Name]; ok {
		if len(r.Components) == 0 {
			return s.mg.nodeByKeyParts(vk, r.Line)
		}
		// Derived-type module variable: canonical name is the final
		// component but the node lives in the variable's home module.
		home, _ := split2(vk)
		return s.mg.node(home, "", canon, r.Line, false)
	}
	// Implicitly declared: local to the subprogram.
	return s.mg.node(s.modName, s.sub.Name, canon, r.Line, false)
}

// isArray reports whether name(args) is an array reference rather than
// a call, via the declared-array tables (hash-table disambiguation).
func (s *scope) isArray(name string) bool {
	if s.arrays[name] {
		return true
	}
	if s.locals[name] {
		return false
	}
	return s.msc.arrays[name]
}

func (s *scope) funcTargets(name string) []procTarget {
	return s.msc.funcs[name]
}

func (s *scope) subTargets(name string) []procTarget {
	return s.msc.subs[name]
}

// processSubprogram walks every statement, adding nodes and edges.
func (b *builder) processSubprogram(m *fortran.Module, sub *fortran.Subprogram) {
	s := b.newScope(m, sub)
	fortran.WalkStmts(sub.Body, func(st fortran.Stmt) {
		switch x := st.(type) {
		case *fortran.AssignStmt:
			s.processAssign(x)
		case *fortran.CallStmt:
			s.processCall(x)
		case *fortran.DoStmt:
			// Loop bounds feed the loop variable.
			iv := s.mg.node(s.modName, s.sub.Name, x.Var, x.Line, false)
			for _, src := range s.exprOutputs(x.From) {
				s.mg.G.AddEdge(src, iv)
			}
			for _, src := range s.exprOutputs(x.To) {
				s.mg.G.AddEdge(src, iv)
			}
		}
	})
}

func (s *scope) processAssign(a *fortran.AssignStmt) {
	defer func() {
		if recover() != nil {
			// Statements beyond the builder (the paper's "all but 10
			// assignment statements") are counted, not fatal.
			s.mg.Unparsed++
		}
	}()
	lhs := s.resolveVar(a.LHS)
	for _, src := range s.exprOutputs(a.RHS) {
		if src != lhs {
			s.mg.G.AddEdge(src, lhs)
		}
	}
}

// exprOutputs returns the node ids whose values feed the expression —
// the "output" layer that gets edges to whatever consumes e.
func (s *scope) exprOutputs(e fortran.Expr) []int {
	switch x := e.(type) {
	case nil:
		return nil
	case *fortran.NumLit, *fortran.StrLit:
		return nil
	case *fortran.UnaryExpr:
		return s.exprOutputs(x.X)
	case *fortran.BinaryExpr:
		return append(s.exprOutputs(x.L), s.exprOutputs(x.R)...)
	case *fortran.Ref:
		return s.refOutputs(x)
	}
	return nil
}

func (s *scope) refOutputs(r *fortran.Ref) []int {
	if !r.HasParens || len(r.Components) > 0 {
		// Plain variable or derived-type access (indices atomic).
		return []int{s.resolveVar(r)}
	}
	// name(args): function call, intrinsic, or array element.
	if intrinsics[r.Name] {
		// Localized intrinsic node: min_104__modname style (§4.2).
		canon := fmt.Sprintf("%s_%d", r.Name, r.Line)
		in := s.mg.node(s.modName, s.sub.Name, canon, r.Line, true)
		for _, a := range r.Args {
			for _, src := range s.exprOutputs(a) {
				s.mg.G.AddEdge(src, in)
			}
		}
		return []int{in}
	}
	if targets := s.funcTargets(r.Name); len(targets) > 0 {
		var outs []int
		for _, t := range targets {
			outs = append(outs, s.callFunction(t, r.Args)...)
		}
		return outs
	}
	if s.isArray(r.Name) {
		// Array element: indices are ignored (arrays are atomic).
		return []int{s.resolveVar(r)}
	}
	// Unknown name(args): could be an array we failed to see declared;
	// treat as a variable (conservative) — matches the paper's custom
	// string-parsing fallback.
	return []int{s.resolveVar(r)}
}

// callFunction wires actual arguments into the function's dummy
// arguments and returns the function's result node.
func (s *scope) callFunction(t procTarget, args []fortran.Expr) []int {
	f := t.sub
	for i, a := range args {
		if i >= len(f.Args) {
			break
		}
		dummy := s.mg.node(t.module, f.Name, f.Args[i], f.Line, false)
		for _, src := range s.exprOutputs(a) {
			s.mg.G.AddEdge(src, dummy)
		}
	}
	res := s.mg.node(t.module, f.Name, f.ResultVar(), f.Line, false)
	return []int{res}
}

func (s *scope) processCall(c *fortran.CallStmt) {
	defer func() {
		if recover() != nil {
			s.mg.Unparsed++
		}
	}()
	switch c.Name {
	case "outfld":
		// call outfld('LABEL', var): record the label → canonical-name
		// mapping used by slicing to tie outputs to internal variables.
		if len(c.Args) == 2 {
			lbl, ok1 := c.Args[0].(*fortran.StrLit)
			v, ok2 := c.Args[1].(*fortran.Ref)
			if ok1 && ok2 {
				s.mg.OutputMap[lbl.Value] = v.Canonical()
			}
		}
		return
	case "random_number":
		// The PRNG is an information source: a localized node feeding
		// the argument.
		if len(c.Args) == 1 {
			if v, ok := c.Args[0].(*fortran.Ref); ok {
				src := s.mg.node(s.modName, s.sub.Name,
					fmt.Sprintf("random_number_%d", c.Line), c.Line, true)
				s.mg.G.AddEdge(src, s.resolveVar(v))
			}
		}
		return
	}
	targets := s.subTargets(c.Name)
	for _, t := range targets {
		sub := t.sub
		intentOf := func(arg string) fortran.Intent {
			for _, d := range sub.Decls {
				for _, n := range d.Names {
					if n == arg {
						return d.Intent
					}
				}
			}
			return fortran.IntentUnknown
		}
		for i, a := range c.Args {
			if i >= len(sub.Args) {
				break
			}
			dummyName := sub.Args[i]
			dummy := s.mg.node(t.module, sub.Name, dummyName, sub.Line, false)
			intent := intentOf(dummyName)
			if ref, ok := a.(*fortran.Ref); ok && !ref.HasParens || isPlainDerived(a) {
				actual := s.resolveVar(a.(*fortran.Ref))
				if intent == fortran.IntentIn || intent == fortran.IntentInOut || intent == fortran.IntentUnknown {
					s.mg.G.AddEdge(actual, dummy)
				}
				if intent == fortran.IntentOut || intent == fortran.IntentInOut || intent == fortran.IntentUnknown {
					s.mg.G.AddEdge(dummy, actual)
				}
				continue
			}
			// Expression actual: value flows in only.
			if intent != fortran.IntentOut {
				for _, src := range s.exprOutputs(a) {
					s.mg.G.AddEdge(src, dummy)
				}
			}
		}
	}
}

// isPlainDerived reports whether a is a derived-type reference like
// state%omega (indexed or not) — passed by reference like any variable.
func isPlainDerived(a fortran.Expr) bool {
	r, ok := a.(*fortran.Ref)
	return ok && len(r.Components) > 0
}

// --- Queries -------------------------------------------------------

// NodeID returns the node id for a key, if present.
func (mg *Metagraph) NodeID(k string) (int, bool) {
	id, ok := mg.byKey[k]
	return id, ok
}

// ByCanonical returns all (non-intrinsic) node ids with the canonical
// name, in creation order.
func (mg *Metagraph) ByCanonical(name string) []int {
	return mg.byCanonical[name]
}

// ByDisplay returns the node ids whose Display name matches.
func (mg *Metagraph) ByDisplay(display string) []int {
	var out []int
	for i := range mg.Nodes {
		if mg.Nodes[i].Display == display {
			out = append(out, i)
		}
	}
	return out
}

// ModulePartition returns a partition of nodes by module (for the
// quotient graph of §6.5) along with the ordered module names.
func (mg *Metagraph) ModulePartition() ([]int, []string) {
	names := append([]string(nil), mg.modules...)
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	part := make([]int, len(mg.Nodes))
	for i := range mg.Nodes {
		part[i] = idx[mg.Nodes[i].Module]
	}
	return part, names
}

// NodesInModules returns ids of nodes whose module satisfies keep.
func (mg *Metagraph) NodesInModules(keep func(module string) bool) []int {
	var out []int
	for i := range mg.Nodes {
		if keep(mg.Nodes[i].Module) {
			out = append(out, i)
		}
	}
	return out
}

// ModuleNames returns the sorted module list.
func (mg *Metagraph) ModuleNames() []string {
	_, names := mg.ModulePartition()
	return names
}

// Stats summarizes the metagraph.
type Stats struct {
	Modules  int
	Nodes    int
	Edges    int
	Unparsed int
}

// Stats returns summary counts.
func (mg *Metagraph) Stats() Stats {
	return Stats{
		Modules:  len(mg.modules),
		Nodes:    mg.G.NumNodes(),
		Edges:    mg.G.NumEdges(),
		Unparsed: mg.Unparsed,
	}
}
