package corpus

import (
	"fmt"
	"slices"
	"strings"

	"github.com/climate-rca/rca/internal/fortran"
)

// This file derives a corpus whose configuration differs from a
// generated one only in the values of the ensemble parameters
// (TurbCoef, FMAGain, AuxFMAGain). Each value renders as the literal
// initializer of a module-level `real, parameter` declaration, so the
// derived corpus is the generated one with those literals replaced:
// Derive splices the new literals into copies of the changed files and
// re-parses only the edited declarations.

// param names the Config field a site's literal renders.
type param uint8

const (
	turbCoef param = iota
	fmaGain
	auxFMAGain
)

// site is one literal a parameter value renders: the initializer of
// the `real, parameter` declaration on line line of file file, which
// runs from byte start to the end of that line. An AuxFMAGain literal
// renders AuxFMAGain*factor*sign, evaluated in that order, with %.8g;
// the other two render their value with %.6g. A file holds at most one
// site.
type site struct {
	file, line, start int
	param             param
	factor, sign      float64
}

// literal renders the site's value under cfg as Generate prints it.
func (s site) literal(cfg Config) string {
	switch s.param {
	case turbCoef:
		return fmt.Sprintf("%.6g", cfg.TurbCoef)
	case fmaGain:
		return fmt.Sprintf("%.6g", cfg.FMAGain)
	default:
		return fmt.Sprintf("%.8g", cfg.AuxFMAGain*s.factor*s.sign)
	}
}

// addSite records that the last added file's literal at byte start
// renders p.
func (c *Corpus) addSite(p param, start int, factor, sign float64) {
	i := len(c.Files) - 1
	line := strings.Count(c.Files[i].Source[:start], "\n") + 1
	c.sites = append(c.sites, site{file: i, line: line, start: start, param: p, factor: factor, sign: sign})
}

// addParamSite records the literal of the last added file's `real,
// parameter` declaration of name, which renders p.
func (c *Corpus) addParamSite(p param, name string) {
	decl := "real, parameter :: " + name + " = "
	c.addSite(p, strings.Index(c.Files[len(c.Files)-1].Source, decl)+len(decl), 1, 1)
}

// Derive returns a corpus equal to Generate(cfg). When cfg differs from
// c's configuration only in TurbCoef, FMAGain and AuxFMAGain, and c is
// a generated corpus (not a patched one), it is built from c by edit:
// files whose literals do not change keep c's text and parsed modules,
// and each changed file's module is c's with the edited declaration
// re-parsed (fortran.WithInit), so neither Generate nor the lexer runs
// over the corpus and the result's Parse finds every file parsed. Any
// other configuration is generated.
func (c *Corpus) Derive(cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	same := c.cfg
	same.TurbCoef, same.FMAGain, same.AuxFMAGain = cfg.TurbCoef, cfg.FMAGain, cfg.AuxFMAGain
	if c.sites == nil || same != cfg {
		return Generate(cfg)
	}
	if cfg == c.cfg {
		return c
	}
	d := *c
	d.cfg = cfg
	d.Files = slices.Clone(c.Files)
	d.srcs = slices.Clone(c.srcs)
	for _, st := range c.sites {
		text := c.Files[st.file].Source
		end := st.start + strings.IndexByte(text[st.start:], '\n')
		lit := st.literal(cfg)
		if lit == text[st.start:end] {
			continue
		}
		s := cached(text[:st.start] + lit + text[end:])
		if s.mods.Load() == nil {
			lineStart := strings.LastIndexByte(text[:st.start], '\n') + 1
			if m := c.withInit(st, s.text[lineStart:st.start+len(lit)]); m != nil {
				s.mods.CompareAndSwap(nil, &[]*fortran.Module{m})
			}
		}
		d.Files[st.file].Source = s.text
		d.srcs[st.file] = s
	}
	return &d
}

// withInit returns the module of st's file in c with st's declaration
// re-parsed from line, or nil when it cannot be derived; the derived
// file then parses from its text on first use, as any other text does.
func (c *Corpus) withInit(st site, line string) *fortran.Module {
	mods, err := c.source(st.file).parse()
	if err != nil || len(mods) != 1 {
		return nil
	}
	m, err := fortran.WithInit(mods[0], st.line, line)
	if err != nil {
		return nil
	}
	return m
}
