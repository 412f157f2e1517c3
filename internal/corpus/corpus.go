// Package corpus synthesizes the CESM-like FortLite source tree the
// reproduction runs on. It stands in for the ~660k coverage-filtered
// lines of CAM/CESM Fortran (paper §4): a compact, hand-modeled core —
// with the paper's actual module and variable names (microp_aero's
// wsub, micro_mg_tend's dum/ratio/tlat/nctend/..., the Goff-Gratch
// saturation vapor pressure function, the dyn3 hydrostatic kernel, the
// PRNG-driven longwave/shortwave cloud modules) — surrounded by a
// configurable number of generated auxiliary physics/diagnostic/land
// modules wired into a hub-heavy dependency structure so the digraph's
// degree distribution is power-law-ish (Figure 4).
//
// The generator is deterministic: the same Config yields byte-identical
// source, so the metagraph and the interpreter always agree.
package corpus

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/rng"
)

// Config sizes and parameterizes the corpus.
type Config struct {
	// AuxModules is the number of generated auxiliary modules (beyond
	// the ~15 hand-modeled core modules). The paper's quotient graph
	// has 561 modules; Default() uses a CI-friendly size and benches
	// scale up.
	AuxModules int
	// VarsPerAux is the mean number of variables per auxiliary module.
	AuxVars int
	// Seed drives the deterministic structure generator.
	Seed uint64
	// FMAGain scales the fused-multiply-add-sensitive kernel in
	// micro_mg_tend (the deterministic cancellation path that makes
	// FMA statistically visible, §6.4). Zero selects the default.
	FMAGain float64
	// AuxFMAGain scales the weak FMA-sensitive kernels distributed in
	// auxiliary modules. Zero selects the default.
	AuxFMAGain float64
	// TurbCoef couples the chaotic internal-variability field into the
	// temperature tendency (sets the ensemble spread). Zero selects
	// the default.
	TurbCoef float64
	// UnusedModules adds modules that are never called by the driver
	// (grist for the coverage filter). Defaults to AuxModules/4.
	UnusedModules int
	// UnusedSubprograms adds never-called subprograms to auxiliary
	// modules (the subprogram-level coverage reduction). Expressed
	// per-module probability in percent [0,100]. Default 40.
	UnusedSubprogramPct int
}

// Default returns the CI-sized configuration.
func Default() Config {
	return Config{AuxModules: 100, AuxVars: 10, Seed: 1}
}

// PaperScale returns a corpus sized like the paper's quotient graph
// (561 modules).
func PaperScale() Config {
	return Config{AuxModules: 540, AuxVars: 12, Seed: 1}
}

func (c Config) withDefaults() Config {
	if c.AuxModules <= 0 {
		c.AuxModules = 100
	}
	if c.AuxVars <= 0 {
		c.AuxVars = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FMAGain == 0 {
		c.FMAGain = 3000.0
	}
	if c.AuxFMAGain == 0 {
		c.AuxFMAGain = 0.01
	}
	if c.TurbCoef == 0 {
		c.TurbCoef = 0.01
	}
	if c.UnusedModules == 0 {
		c.UnusedModules = c.AuxModules / 4
	}
	if c.UnusedSubprogramPct == 0 {
		c.UnusedSubprogramPct = 40
	}
	return c
}

// File is one synthesized source file.
type File struct {
	Name   string // e.g. "micro_mg.F90"
	Source string
	// Component tags the model component ("cam", "lnd", "share") for
	// the CAM-restriction filter the paper applies in §6.
	Component string
	// Core marks hand-modeled core modules (compact but central).
	Core bool
}

// Corpus is the generated source tree plus its manifest.
type Corpus struct {
	Files []File
	cfg   Config
	// DriverModule / StepSub / InitSub name the model entry points.
	DriverModule string
	InitSub      string
	StepSub      string
	// OutputToInternal maps outfld labels to internal canonical names
	// (ground truth for Table 2; the metagraph re-derives it).
	OutputToInternal map[string]string
	// ComponentOf maps module name to component.
	ComponentOf map[string]string
	// AuxCalled lists auxiliary modules actually invoked by the driver.
	AuxCalled []string

	// srcs holds each file's parse-layer entry, parallel to Files (nil
	// for a corpus built by hand).
	srcs []*source
	// sites lists the literals the parameter values render, in file
	// order; Generate records them and Derive edits them. A patched
	// corpus has none.
	sites []site
}

// Generate synthesizes the corpus for a configuration.
func Generate(cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	c := &Corpus{
		cfg:              cfg,
		DriverModule:     "cam_driver",
		InitSub:          "cam_init",
		StepSub:          "cam_step",
		OutputToInternal: make(map[string]string),
		ComponentOf:      make(map[string]string),
	}
	c.addCore()
	c.addAux()
	c.addDriver()
	return c
}

// Config returns the (defaulted) generation configuration.
func (c *Corpus) Config() Config { return c.cfg }

func (c *Corpus) add(name, component string, core bool, src string) {
	modName := strings.TrimSuffix(name, ".F90")
	s := cached(src)
	c.Files = append(c.Files, File{Name: name, Source: s.text, Component: component, Core: core})
	c.srcs = append(c.srcs, s)
	c.ComponentOf[modName] = component
}

// The parse layer keeps one process-wide copy of each distinct file
// text and of each distinct parsed subprogram, and every corpus keeps
// the parsed modules of its own files.
//
// parseCache maps a file text to its entry: the canonical copy of the
// text, which every corpus holding that text shares (Generate, Derive
// and Apply store their texts through it), and the text's modules once
// parsed. A corpus holds the entry of each of its files (srcs), so a
// file parses at most once per corpus even when the cache is full.
//
// A `param:` perturbation changes module-level parameter lines only,
// and Derive builds such a corpus from the clean one without lexing it:
// every file it leaves alone keeps the clean entry, and each changed
// file (one for `turbcoef` or `fmagain`, every `aux_phys` file for
// `auxfmagain`) gets an entry whose module is a copy of the clean one
// with the edited initializer re-parsed from its line
// (fortran.WithInit). The copy shares the clean module's subprograms
// and its other header nodes.
//
// Texts parsed from scratch share their subprograms through
// subprograms, keyed by the enclosing module's name and the
// subprogram's exact tokens (fortran.ParseFileShared): a patch or a
// generated configuration that leaves a subprogram's text and lines
// alone reuses the node already parsed. The key holds the module name
// because the bytecode compiler keys its tables by node pointer, so no
// two modules of one tree may share a node.
//
// Parsed modules are immutable: every consumer (metagraph, coverage,
// both execution engines, the patch engine) only reads them, so sharing
// is safe. fortran.ParseFile stays fresh for code that needs a tree of
// its own to edit.
//
// Neither process-wide cache evicts. The text cache stops adding at
// parseCacheMax (8,192) texts and the subprogram table at
// subprogramsMax (65,536) nodes, for the life of the process. Traffic
// reaches the text cache's cap: `param:` values come from a continuous
// range, and each `auxfmagain` value adds 40 texts, so ~200 such jobs
// fill it. Past the cap a new text is not shared between corpora: each
// corpus holding it keeps its own copy and its own entry, which a
// derived corpus fills at derivation and any other corpus parses on
// first use. Past the table's cap, new subprograms keep their fresh
// nodes. Results do not change; only the sharing stops.
var (
	parseCache     sync.Map // text → *source
	parseCacheSize atomic.Int64

	subprograms      sync.Map // fortran.ParseFileShared key → *fortran.Subprogram
	subprogramsSize  atomic.Int64
	subprogramShares atomic.Uint64

	// fileParses counts the texts the parse layer has lexed and parsed.
	fileParses atomic.Int64
)

const (
	parseCacheMax  = 8192
	subprogramsMax = 8 * parseCacheMax // a file holds a few subprograms
)

// source is one parse-layer entry.
type source struct {
	text string
	mods atomic.Pointer[[]*fortran.Module] // nil until parsed
}

// cached returns text's parse-cache entry, adding it while the cache
// has room; past the cap it returns a fresh entry no other text shares.
func cached(text string) *source {
	if v, ok := parseCache.Load(text); ok {
		return v.(*source)
	}
	s := &source{text: text}
	if parseCacheSize.Load() < parseCacheMax {
		if v, loaded := parseCache.LoadOrStore(text, s); loaded {
			return v.(*source)
		}
		parseCacheSize.Add(1)
	}
	return s
}

// parse returns the entry's modules, parsing its text on first use.
func (s *source) parse() ([]*fortran.Module, error) {
	if ms := s.mods.Load(); ms != nil {
		return *ms, nil
	}
	fileParses.Add(1)
	ms, err := fortran.ParseFileShared(s.text, shareSubprogram)
	if err != nil {
		// Keep no entry for a text that does not parse (a rejected
		// patch).
		if parseCache.CompareAndDelete(s.text, s) {
			parseCacheSize.Add(-1)
		}
		return nil, err
	}
	if !s.mods.CompareAndSwap(nil, &ms) {
		// A concurrent first parse won the race: return its modules
		// so identical texts always share pointer identity.
		ms = *s.mods.Load()
	}
	return ms, nil
}

// source returns file i's parse-layer entry: the one the corpus holds,
// or, for a corpus built by hand, the cache's.
func (c *Corpus) source(i int) *source {
	if i < len(c.srcs) && c.srcs[i].text == c.Files[i].Source {
		return c.srcs[i]
	}
	return cached(c.Files[i].Source)
}

// shareSubprogram returns the table's subprogram for key, adding sub
// while the table has room.
func shareSubprogram(key [32]byte, sub *fortran.Subprogram) *fortran.Subprogram {
	if v, ok := subprograms.Load(key); ok {
		subprogramShares.Add(1)
		return v.(*fortran.Subprogram)
	}
	if subprogramsSize.Load() < subprogramsMax {
		if v, loaded := subprograms.LoadOrStore(key, sub); loaded {
			subprogramShares.Add(1)
			return v.(*fortran.Subprogram)
		}
		subprogramsSize.Add(1)
	}
	return sub
}

// SubprogramShares counts, process-wide, the parsed subprograms a
// module took from the parse layer's table instead of keeping its own
// fresh parse. rcad reports it at /metrics.
func SubprogramShares() uint64 { return subprogramShares.Load() }

// Parse parses every file into FortLite modules, in generation order
// (which is a valid use-dependency order). Each file parses once per
// corpus, and at most once per process while the parse cache has room;
// a derived corpus's edited files are parsed already. Trees share
// modules and subprograms, so the result must not be modified.
func (c *Corpus) Parse() ([]*fortran.Module, error) {
	var mods []*fortran.Module
	for i, f := range c.Files {
		ms, err := c.source(i).parse()
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: %w", f.Name, err)
		}
		mods = append(mods, ms...)
	}
	return mods, nil
}

// Modules returns the module names in generation order.
func (c *Corpus) Modules() []string {
	out := make([]string, 0, len(c.Files))
	for _, f := range c.Files {
		out = append(out, strings.TrimSuffix(f.Name, ".F90"))
	}
	return out
}

// LinesOf returns the line count per module (the "largest modules by
// lines of code" ranking in Table 1).
func (c *Corpus) LinesOf() map[string]int {
	out := make(map[string]int, len(c.Files))
	for _, f := range c.Files {
		out[strings.TrimSuffix(f.Name, ".F90")] = strings.Count(f.Source, "\n")
	}
	return out
}

// IsCAM reports whether a module belongs to the atmosphere component.
func (c *Corpus) IsCAM(module string) bool {
	return c.ComponentOf[module] == "cam"
}

// auxRand builds the deterministic structure generator.
func (c *Corpus) auxRand() *rng.LCG { return rng.NewLCG(c.cfg.Seed) }
