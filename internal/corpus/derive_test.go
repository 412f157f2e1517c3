package corpus

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/climate-rca/rca/internal/fortran"
)

// deriveBase is the bench corpus the derive tests run on.
func deriveBase() Config { return Config{AuxModules: 40, Seed: 2} }

// paramSetters sets each ensemble parameter of a Config.
var paramSetters = []struct {
	name string
	def  float64
	set  func(*Config, float64)
}{
	{"turbcoef", 0.01, func(c *Config, v float64) { c.TurbCoef = v }},
	{"fmagain", 3000, func(c *Config, v float64) { c.FMAGain = v }},
	{"auxfmagain", 0.01, func(c *Config, v float64) { c.AuxFMAGain = v }},
}

// paramValues returns the values the property test perturbs a
// parameter of default def to: n sampled around the default, their
// negatives, exponent-form extremes, and the default itself.
func paramValues(r *rand.Rand, def float64, n int) []float64 {
	vs := []float64{def, -def, 1e-300, 1e300, -1e-300, def * (1 + 1e-9)}
	for k := 0; k < n; k++ {
		v := def * (0.5 + 1.5*r.Float64())
		if k%4 == 3 {
			v = -v
		}
		vs = append(vs, v)
	}
	return vs
}

// checkDerived requires d, derived from clean for cfg, to equal
// Generate(cfg): byte-equal texts, a reflect.DeepEqual Corpus, and a
// module for each file that is reflect.DeepEqual (Shape and Lits
// included) to a fresh fortran.ParseFile of its text.
func checkDerived(t *testing.T, label string, clean, d *Corpus, cfg Config) {
	t.Helper()
	want := Generate(cfg)
	for i, f := range want.Files {
		if d.Files[i].Source != f.Source {
			t.Fatalf("%s: %s differs from Generate's text", label, f.Name)
		}
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("%s: derived corpus is not reflect.DeepEqual to Generate(cfg)", label)
	}
	mods, err := d.Parse()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, f := range d.Files {
		if f.Source == clean.Files[i].Source {
			continue
		}
		fresh, err := fortran.ParseFile(f.Source)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, f.Name, err)
		}
		if len(fresh) != 1 || !reflect.DeepEqual(mods[i], fresh[0]) {
			t.Fatalf("%s: derived module %s differs from a fresh parse of its text", label, f.Name)
		}
	}
}

// TestDeriveMatchesGenerate is the derive step's property: for each
// ensemble parameter, each pair of them, and a parameter under a
// catalog patch, at sampled, negative, exponent-form and default
// values, the derived corpus is Generate's, and the default derives the
// clean corpus itself. CI runs it at full size; -short samples fewer
// values.
func TestDeriveMatchesGenerate(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 4
	}
	r := rand.New(rand.NewSource(7))
	base := deriveBase()
	clean := Generate(base)
	if _, err := clean.Parse(); err != nil {
		t.Fatal(err)
	}
	for _, p := range paramSetters {
		for _, v := range paramValues(r, p.def, n) {
			cfg := base
			p.set(&cfg, v)
			d := clean.Derive(cfg)
			if v == p.def && d != clean {
				t.Fatalf("%s at its default: derived a new corpus", p.name)
			}
			checkDerived(t, fmt.Sprintf("%s=%g", p.name, v), clean, d, cfg)
		}
	}
	for i, p := range paramSetters {
		q := paramSetters[(i+1)%len(paramSetters)]
		pv, qv := paramValues(r, p.def, n), paramValues(r, q.def, n)
		for k := range pv {
			cfg := base
			p.set(&cfg, pv[k])
			q.set(&cfg, qv[len(qv)-1-k])
			checkDerived(t, fmt.Sprintf("%s=%g,%s=%g", p.name, pv[k], q.name, qv[len(qv)-1-k]), clean, clean.Derive(cfg), cfg)
		}
	}
	for k, p := range paramSetters {
		patch := catalogPatches[k%len(catalogPatches)]
		for _, v := range paramValues(r, p.def, n/4) {
			cfg := base
			p.set(&cfg, v)
			label := fmt.Sprintf("%s=%g+%s", p.name, v, patch.name)
			got, err := Apply(clean.Derive(cfg), patch.patch)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := Apply(Generate(cfg), patch.patch)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: patched derived corpus differs from the patched generated one", label)
			}
			if got.Derive(cfg).Fingerprint() == got.Fingerprint() {
				t.Fatalf("%s: a patched corpus derived itself", label)
			}
		}
	}
}

// TestDeriveGeneratesOtherConfigs pins Derive's fallback: a change
// beyond the parameter values generates.
func TestDeriveGeneratesOtherConfigs(t *testing.T) {
	clean := Generate(Config{AuxModules: 6, Seed: 3})
	cfg := Config{AuxModules: 6, Seed: 4, TurbCoef: 0.02}
	if d := clean.Derive(cfg); !reflect.DeepEqual(d, Generate(cfg)) {
		t.Fatal("a new seed did not generate its corpus")
	}
}

// deriveRuns gives every run of TestDerivedCorpusLexesNothing values
// no earlier run derived, so a repeated run (-count N) derives afresh.
var deriveRuns atomic.Int64

// TestDerivedCorpusLexesNothing pins the point of deriving: neither
// Derive nor the derived corpus's Parse lexes a file, with the parse
// cache below its cap and at it, and each changed module shares its
// subprograms and its unchanged header nodes with the clean tree.
func TestDerivedCorpusLexesNothing(t *testing.T) {
	run := float64(deriveRuns.Add(1))
	clean := Generate(deriveBase())
	cleanMods, err := clean.Parse()
	if err != nil {
		t.Fatal(err)
	}
	for _, atCap := range []bool{false, true} {
		if atCap {
			saved := parseCacheSize.Load()
			parseCacheSize.Store(parseCacheMax)
			t.Cleanup(func() { parseCacheSize.Store(saved) })
		}
		for _, p := range paramSetters {
			cfg := deriveBase()
			v := p.def * (1.5 + run/1000)
			if atCap {
				v = -v
			}
			p.set(&cfg, v)
			before := fileParses.Load()
			d := clean.Derive(cfg)
			mods, err := d.Parse()
			if err != nil {
				t.Fatal(err)
			}
			if n := fileParses.Load() - before; n != 0 {
				t.Fatalf("%s=%g (cache at cap: %v): %d files lexed", p.name, v, atCap, n)
			}
			changed := 0
			for i, m := range mods {
				cm := cleanMods[i]
				if d.Files[i].Source == clean.Files[i].Source {
					if m != cm {
						t.Fatalf("%s: unchanged module %s not shared", p.name, m.Name)
					}
					continue
				}
				changed++
				if m == cm || &m.Subprograms[0] != &cm.Subprograms[0] || &m.Uses[0] != &cm.Uses[0] {
					t.Fatalf("%s: changed module %s does not share the clean module's nodes", p.name, m.Name)
				}
			}
			if changed == 0 {
				t.Fatalf("%s=%g: no file changed", p.name, v)
			}
		}
	}
}

// TestConcurrentDerivesShareOneTree races derivations and generations
// of one never-seen configuration: whichever fills a changed text's
// entry first, every corpus holding that text ends up with the same
// modules.
func TestConcurrentDerivesShareOneTree(t *testing.T) {
	clean := Generate(Config{AuxModules: 6, Seed: 5})
	if _, err := clean.Parse(); err != nil {
		t.Fatal(err)
	}
	cfg := clean.Config()
	cfg.AuxFMAGain = 0.0173 + float64(deriveRuns.Add(1))/1e6
	trees := make([][]*fortran.Module, 8)
	errs := make([]error, len(trees))
	var wg sync.WaitGroup
	for i := range trees {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := Generate(cfg)
			if i%2 == 0 {
				c = clean.Derive(cfg)
			}
			trees[i], errs[i] = c.Parse()
		}(i)
	}
	wg.Wait()
	for i, tree := range trees {
		if errs[i] != nil {
			t.Fatalf("tree %d: %v", i, errs[i])
		}
		for j, m := range tree {
			if m != trees[0][j] {
				t.Fatalf("tree %d: module %s held twice for one text", i, m.Name)
			}
		}
	}
}
