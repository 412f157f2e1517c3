// Package coverage implements the dynamic half of the paper's hybrid
// slicing (§2.1, §4.1): it records which modules and subprograms
// actually execute during the first model steps (standing in for the
// Intel compiler's codecov tool) and filters the parsed source down to
// executed code before the metagraph is built.
//
// The paper reports this filtering removes ~30% of modules and ~60% of
// subprograms; the synthetic corpus's dead modules and never-called
// subprograms give the filter real work to do.
package coverage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"github.com/climate-rca/rca/internal/fortran"
)

// Trace accumulates executed (module, subprogram) pairs.
type Trace struct {
	executed map[string]map[string]bool
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{executed: make(map[string]map[string]bool)}
}

// Record marks a subprogram as executed. It is the callback to wire
// into the interpreter's Trace hook.
func (t *Trace) Record(module, subprogram string) {
	subs := t.executed[module]
	if subs == nil {
		subs = make(map[string]bool)
		t.executed[module] = subs
	}
	subs[subprogram] = true
}

// Executed reports whether the subprogram ran.
func (t *Trace) Executed(module, subprogram string) bool {
	return t.executed[module][subprogram]
}

// ModuleExecuted reports whether any subprogram of the module ran.
func (t *Trace) ModuleExecuted(module string) bool {
	return len(t.executed[module]) > 0
}

// Modules returns the sorted list of executed modules.
func (t *Trace) Modules() []string {
	out := make([]string, 0, len(t.executed))
	for m := range t.executed {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Key is a canonical digest of the executed (module, subprogram) set:
// a SHA-256, hex-encoded, over the modules in sorted order, each with
// its sorted subprograms, every count and name length-prefixed. It
// depends on neither recording order nor repeated records, and two
// traces share it exactly when they executed the same pairs — so it
// stands for the trace wherever Filter's output is cached.
func (t *Trace) Key() string {
	h := sha256.New()
	var buf []byte
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	mods := t.Modules()
	buf = binary.AppendUvarint(buf, uint64(len(mods)))
	for _, m := range mods {
		subs := make([]string, 0, len(t.executed[m]))
		for s := range t.executed[m] {
			subs = append(subs, s)
		}
		sort.Strings(subs)
		str(m)
		buf = binary.AppendUvarint(buf, uint64(len(subs)))
		for _, s := range subs {
			str(s)
		}
		h.Write(buf)
		buf = buf[:0]
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// Report summarizes a filtering pass.
type Report struct {
	ModulesBefore     int
	ModulesAfter      int
	SubprogramsBefore int
	SubprogramsAfter  int
}

// ModuleReductionPct returns the percentage of modules removed.
func (r Report) ModuleReductionPct() float64 {
	if r.ModulesBefore == 0 {
		return 0
	}
	return 100 * float64(r.ModulesBefore-r.ModulesAfter) / float64(r.ModulesBefore)
}

// SubprogramReductionPct returns the percentage of subprograms removed.
func (r Report) SubprogramReductionPct() float64 {
	if r.SubprogramsBefore == 0 {
		return 0
	}
	return 100 * float64(r.SubprogramsBefore-r.SubprogramsAfter) / float64(r.SubprogramsBefore)
}

// Filter returns a copy of mods restricted to executed modules, with
// never-executed subprograms removed ("commented out", §4.1). Module
// variable declarations, types, and interfaces are retained because
// executed code may reference them. Modules that declare variables but
// were never traced are kept only if some executed module uses them
// (conservative: we keep modules with no subprograms at all, e.g. pure
// declaration modules, since codecov has nothing to say about them).
func Filter(mods []*fortran.Module, t *Trace) ([]*fortran.Module, Report) {
	var rep Report
	rep.ModulesBefore = len(mods)
	var out []*fortran.Module
	for _, m := range mods {
		rep.SubprogramsBefore += len(m.Subprograms)
		declOnly := len(m.Subprograms) == 0
		if !declOnly && !t.ModuleExecuted(m.Name) {
			continue
		}
		fm := &fortran.Module{
			Name:       m.Name,
			Uses:       m.Uses,
			Types:      m.Types,
			Decls:      m.Decls,
			Interfaces: m.Interfaces,
			Line:       m.Line,
		}
		for _, sub := range m.Subprograms {
			if t.Executed(m.Name, sub.Name) {
				fm.Subprograms = append(fm.Subprograms, sub)
			}
		}
		rep.SubprogramsAfter += len(fm.Subprograms)
		rep.ModulesAfter++
		out = append(out, fm)
	}
	return out, rep
}
