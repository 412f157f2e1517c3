package corpus

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"github.com/climate-rca/rca/internal/fortran"
)

// This file is the patch engine behind every source defect, prewired
// or user-composed: a Patch is a small edit to one assignment statement
// of one named subprogram, located through the FortLite AST (so the
// target must actually parse as an assignment) and applied to the raw
// source text (so the rest of the file stays byte-identical). Apply
// validates every patched file by re-parsing it; a patch can therefore
// never produce a corpus the interpreter and the metagraph compiler
// disagree on.

// Patch target lookup errors.
var (
	// ErrUnknownSubprogram reports a patch that names a module,
	// subprogram or assignment the corpus does not contain.
	ErrUnknownSubprogram = errors.New("corpus: unknown subprogram")
	// ErrBadPatch reports a patch whose edit could not be applied (the
	// old text is absent, or the rewritten line no longer parses).
	ErrBadPatch = errors.New("corpus: bad patch")
)

// Patch is one source-level edit over a named corpus subprogram. The
// two concrete kinds are ReplaceInAssign (substring replacement inside
// an assignment statement) and ScaleAssign (multiply an assignment's
// right-hand side by a factor). ID is a stable fingerprint used as a
// build cache key by the experiments layer.
type Patch interface {
	// ID is the patch's stable fingerprint: equal IDs produce
	// byte-identical patched sources.
	ID() string
	// target names the assignment the patch edits.
	target() patchTarget
	// rewrite edits the assignment's source line.
	rewrite(line string) (string, error)
}

// patchTarget locates one assignment statement: the Occurrence'th
// assignment to Var in Subprogram (module optional — subprogram names
// are unique in the corpus).
type patchTarget struct {
	Module     string
	Subprogram string
	Var        string
	Occurrence int
}

func (t patchTarget) String() string {
	name := t.Subprogram + "." + t.Var
	if t.Module != "" {
		name = t.Module + "/" + name
	}
	if t.Occurrence > 0 {
		name = fmt.Sprintf("%s#%d", name, t.Occurrence)
	}
	return name
}

// ReplaceInAssign replaces the first occurrence of Old with New inside
// the targeted assignment statement — the shape of every §6 source
// defect (a transposed digit, a wrong coefficient, an off-by-one
// index).
type ReplaceInAssign struct {
	Module     string // optional; "" searches every module
	Subprogram string
	Var        string // assignment LHS (canonical name)
	Occurrence int    // 0 = first assignment to Var
	Old, New   string
}

// ID is the patch fingerprint.
func (p ReplaceInAssign) ID() string {
	return "patch:" + p.target().String() + ":" + p.Old + "=>" + p.New
}

func (p ReplaceInAssign) target() patchTarget {
	return patchTarget{Module: p.Module, Subprogram: p.Subprogram, Var: p.Var, Occurrence: p.Occurrence}
}

func (p ReplaceInAssign) rewrite(line string) (string, error) {
	if p.Old == "" || !strings.Contains(line, p.Old) {
		return "", fmt.Errorf("%w: %s: %q not found in %q", ErrBadPatch, p.target(), p.Old, strings.TrimSpace(line))
	}
	return strings.Replace(line, p.Old, p.New, 1), nil
}

// ScaleAssign multiplies the targeted assignment's right-hand side by
// Factor — the ensemble-parameter-perturbation defect family (e.g.
// micro_mg_tend.ratio *= 1.0001).
type ScaleAssign struct {
	Module     string
	Subprogram string
	Var        string
	Occurrence int
	Factor     float64
}

// ID is the patch fingerprint.
func (p ScaleAssign) ID() string {
	return "scale:" + p.target().String() + "*" + FormatFactor(p.Factor)
}

func (p ScaleAssign) target() patchTarget {
	return patchTarget{Module: p.Module, Subprogram: p.Subprogram, Var: p.Var, Occurrence: p.Occurrence}
}

func (p ScaleAssign) rewrite(line string) (string, error) {
	eq := strings.Index(line, "=")
	if eq < 0 {
		return "", fmt.Errorf("%w: %s: no assignment on line %q", ErrBadPatch, p.target(), strings.TrimSpace(line))
	}
	rhs := strings.TrimSpace(line[eq+1:])
	if rhs == "" {
		return "", fmt.Errorf("%w: %s: empty right-hand side", ErrBadPatch, p.target())
	}
	return line[:eq+1] + " (" + rhs + ") * " + FormatFactor(p.Factor), nil
}

// FormatFactor renders a scale factor as a FortLite numeric literal.
func FormatFactor(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".e") {
		s += ".0" // FortLite literals are real-typed
	}
	return s
}

// Apply returns a copy of the corpus with the patches applied in
// order. The original corpus is not modified; patches on the same file
// compose. Each edited file is parsed once, for validation, into the
// entry the returned corpus holds, so that corpus always lexes, parses
// and interprets, and its Parse finds every edited file already parsed.
func Apply(c *Corpus, patches ...Patch) (*Corpus, error) {
	out := &Corpus{
		Files:            append([]File(nil), c.Files...),
		cfg:              c.cfg,
		DriverModule:     c.DriverModule,
		InitSub:          c.InitSub,
		StepSub:          c.StepSub,
		OutputToInternal: c.OutputToInternal,
		ComponentOf:      c.ComponentOf,
		AuxCalled:        c.AuxCalled,
		srcs:             make([]*source, len(c.Files)),
	}
	for i := range out.srcs {
		out.srcs[i] = c.source(i)
	}
	for _, p := range patches {
		if err := applyOne(out, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// applyOne locates the patch target through the cached AST and edits
// the file in place (out.Files entries are value copies).
func applyOne(c *Corpus, p Patch) error {
	t := p.target()
	fi := -1
	var sub *fortran.Subprogram
	for i := range c.Files {
		modName := strings.TrimSuffix(c.Files[i].Name, ".F90")
		if t.Module != "" && modName != strings.ToLower(t.Module) {
			continue
		}
		mods, err := c.source(i).parse()
		if err != nil {
			return fmt.Errorf("corpus: %s: %w", c.Files[i].Name, err)
		}
		for _, m := range mods {
			for _, s := range m.Subprograms {
				if s.Name == strings.ToLower(t.Subprogram) {
					fi, sub = i, s
					break
				}
			}
		}
		if fi >= 0 || t.Module != "" {
			break
		}
	}
	if fi < 0 || sub == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSubprogram, t)
	}

	// The Occurrence'th assignment whose LHS canonical name is Var.
	line, count := 0, 0
	fortran.WalkStmts(sub.Body, func(s fortran.Stmt) {
		as, ok := s.(*fortran.AssignStmt)
		if !ok || as.LHS.Canonical() != strings.ToLower(t.Var) {
			return
		}
		if count == t.Occurrence {
			line = as.Line
		}
		count++
	})
	if line == 0 {
		return fmt.Errorf("%w: %s: no assignment to %q (found %d)",
			ErrUnknownSubprogram, t, t.Var, count)
	}

	lines := strings.Split(c.Files[fi].Source, "\n")
	if line > len(lines) {
		return fmt.Errorf("%w: %s: line %d out of range", ErrBadPatch, t, line)
	}
	edited, err := p.rewrite(lines[line-1])
	if err != nil {
		return err
	}
	lines[line-1] = edited
	s := cached(strings.Join(lines, "\n"))
	if _, err := s.parse(); err != nil {
		return fmt.Errorf("%w: %s: patched source no longer parses: %v", ErrBadPatch, t, err)
	}
	c.Files[fi].Source = s.text
	c.srcs[fi] = s
	return nil
}

// The prewired catalog's source defects (§6 and §8.2), as patches over
// the clean corpus. Each names the exact assignment the paper's defect
// edits; the experiments layer lifts them into catalog injections.
var (
	// WsubPatch transposes 0.20 to 2.00 in microp_aero's wsub
	// assignment (§6.1 WSUBBUG).
	WsubPatch = ReplaceInAssign{Module: "microp_aero", Subprogram: "aero_run",
		Var: "wsub", Old: "0.20", New: "2.00"}
	// GoffGratchPatch changes the water-boiling-temperature coefficient
	// 8.1328e-3 to 8.1828e-3 in the Goff-Gratch elemental function
	// (§6.3 GOFFGRATCH).
	GoffGratchPatch = ReplaceInAssign{Module: "wv_saturation", Subprogram: "goffgratch_svp",
		Var: "e2", Old: "8.1328e-3", New: "8.1828e-3"}
	// Dyn3Patch perturbs a coefficient in the dyn3 hydrostatic pressure
	// subroutine (§8.2.2 DYN3BUG).
	Dyn3Patch = ReplaceInAssign{Module: "dyn3", Subprogram: "dyn3_hydro",
		Var: "pint", Old: "pref * 0.5", New: "pref * 0.505"}
	// RandomIdxPatch is the RANDOMBUG array-index error in the
	// assignment feeding the derived-type state variable omega
	// (§8.2.1): the neighbour-coupling shift index is off by one.
	RandomIdxPatch = ReplaceInAssign{Module: "dyn3", Subprogram: "dyn3_hydro",
		Var: "omg_tmp", Old: "shift(state%u, 1)", New: "shift(state%u, 2)"}
	// LandPatch perturbs the land model's snow retention coefficient —
	// the paper notes bugs in the land module were also located
	// successfully (§6).
	LandPatch = ReplaceInAssign{Module: "lnd_snow", Subprogram: "lnd_run",
		Var: "snowhland", Old: "snowhland * 0.98", New: "snowhland * 0.90"}
)

// Fingerprint is a stable hash of the full source tree (file names and
// contents, in order). Corpora with equal fingerprints are
// byte-identical, so they compile to the same metagraph and interpret
// to the same trajectories.
func (c *Corpus) Fingerprint() string {
	h := fnv.New64a()
	for _, f := range c.Files {
		h.Write([]byte(f.Name))
		h.Write([]byte{0})
		h.Write([]byte(f.Source))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
