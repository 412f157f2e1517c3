package corpus

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/climate-rca/rca/internal/fortran"
)

// TestParamTreesShareParsedSubprograms pins the parse layer's sharing
// on the bench corpus: a `param:` perturbation changes module-level
// parameter lines only, so every changed module of the perturbed tree
// keeps its own declarations but holds the clean tree's subprogram
// nodes, every unchanged file holds the clean tree's text and modules,
// and the tree's shape key and literal values are the clean tree's.
func TestParamTreesShareParsedSubprograms(t *testing.T) {
	base := Config{AuxModules: 40, Seed: 2}
	clean := Generate(base)
	cleanMods, err := clean.Parse()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		set     func(*Config)
		changed int // changed files; 0 means "more than one"
	}{
		{"auxfmagain", func(c *Config) { c.AuxFMAGain = 0.0137 }, 0},
		{"turbcoef", func(c *Config) { c.TurbCoef = 0.0137 }, 1},
		{"fmagain", func(c *Config) { c.FMAGain = 3137 }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.set(&cfg)
			v := Generate(cfg)
			mods, err := v.Parse()
			if err != nil {
				t.Fatal(err)
			}
			if len(mods) != len(cleanMods) || len(v.Files) != len(clean.Files) {
				t.Fatalf("%d modules in %d files, clean %d in %d", len(mods), len(v.Files), len(cleanMods), len(clean.Files))
			}
			if k := fortran.ShapeKey(mods); k == "" || k != fortran.ShapeKey(cleanMods) {
				t.Fatalf("shape key %q, clean %q", k, fortran.ShapeKey(cleanMods))
			}
			changed := 0
			for i, f := range v.Files {
				m, cm := mods[i], cleanMods[i]
				if f.Source == clean.Files[i].Source {
					if unsafe.StringData(f.Source) != unsafe.StringData(clean.Files[i].Source) {
						t.Fatalf("%s: identical text held in two copies", f.Name)
					}
					if m != cm {
						t.Fatalf("%s: identical text parsed twice", f.Name)
					}
					continue
				}
				changed++
				if m == cm || reflect.DeepEqual(m.Decls, cm.Decls) {
					t.Fatalf("%s: changed module shares the clean declarations", f.Name)
				}
				if len(m.Subprograms) == 0 || len(m.Subprograms) != len(cm.Subprograms) {
					t.Fatalf("%s: %d subprograms, clean %d", f.Name, len(m.Subprograms), len(cm.Subprograms))
				}
				for j, sub := range m.Subprograms {
					if sub != cm.Subprograms[j] {
						t.Fatalf("%s: subprogram %s not shared with the clean tree", f.Name, sub.Name)
					}
				}
				if m.Shape != cm.Shape || len(m.Lits) != len(cm.Lits) {
					t.Fatalf("%s: shape or literal count differs from the clean module's", f.Name)
				}
				for j, l := range m.Lits {
					if math.Float64bits(l.Value) != math.Float64bits(cm.Lits[j].Value) {
						t.Fatalf("%s: literal %d = %v, clean %v", f.Name, j, l.Value, cm.Lits[j].Value)
					}
				}
			}
			if changed == 0 || (tc.changed > 0 && changed != tc.changed) || (tc.changed == 0 && changed < 2) {
				t.Fatalf("%d changed files (want %d, 0 meaning more than one)", changed, tc.changed)
			}
		})
	}
}

// TestSharingKeyHoldsModuleName pins that byte-identical subprogram
// text at the same line in two differently named modules of one tree
// parses to two nodes: the bytecode compiler keys its tables by node
// pointer, so two modules of one tree must never share a node.
func TestSharingKeyHoldsModuleName(t *testing.T) {
	const body = "contains\n  subroutine step(x)\n    real :: x\n    x = x * 1.5\n  end subroutine\nend module\n"
	c := &Corpus{Files: []File{
		{Name: "share_key_a.F90", Source: "module share_key_a\n" + body},
		{Name: "share_key_b.F90", Source: "module share_key_b\n" + body},
	}}
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	a, b := mods[0].Subprograms[0], mods[1].Subprograms[0]
	if a == b || a.Body[0] == b.Body[0] {
		t.Fatal("two modules of one tree share a subprogram node")
	}
	if a.Line != b.Line || !reflect.DeepEqual(a, b) {
		t.Fatal("the two subprograms should be equal trees at the same line")
	}
}

// TestFileTextsShareOneCopy pins text interning: regenerating and
// patching a corpus both hand out the process's canonical copy of each
// file text.
func TestFileTextsShareOneCopy(t *testing.T) {
	cfg := Config{AuxModules: 6, Seed: 41}
	a, b := Generate(cfg), Generate(cfg)
	for i := range a.Files {
		if unsafe.StringData(b.Files[i].Source) != unsafe.StringData(a.Files[i].Source) {
			t.Fatalf("%s: equal texts held in separate copies", a.Files[i].Name)
		}
	}
	p1, err := Apply(a, WsubPatch)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Apply(b, WsubPatch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Files {
		if unsafe.StringData(p1.Files[i].Source) != unsafe.StringData(p2.Files[i].Source) {
			t.Fatalf("%s: patched texts held in separate copies", p1.Files[i].Name)
		}
	}
}

// concurrentRuns gives every run of TestConcurrentParsesShareOneTree a
// corpus seed no earlier run parsed, so a repeated run (-count N) races
// first parses again.
var concurrentRuns atomic.Int64

// TestConcurrentParsesShareOneTree races first parses of one
// never-seen text and of its perturbed sibling: every goroutine must
// end up with the same modules for equal texts, and the siblings with
// the same subprogram nodes, whichever parse won.
func TestConcurrentParsesShareOneTree(t *testing.T) {
	seed := 4242 + uint64(concurrentRuns.Add(1))
	cfgs := []Config{{AuxModules: 4, Seed: seed}, {AuxModules: 4, Seed: seed, TurbCoef: 0.0191}}
	const per = 4
	trees := make([][]*fortran.Module, len(cfgs)*per)
	errs := make([]error, len(trees))
	var wg sync.WaitGroup
	for i := range trees {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trees[i], errs[i] = Generate(cfgs[i%len(cfgs)]).Parse()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
	}
	for i, tree := range trees {
		first := trees[i%len(cfgs)]
		for j, m := range tree {
			if m != first[j] {
				t.Fatalf("tree %d: module %s parsed twice for one text", i, m.Name)
			}
			for k, sub := range m.Subprograms {
				if sub != trees[0][j].Subprograms[k] {
					t.Fatalf("tree %d: %s.%s not shared with its sibling", i, m.Name, sub.Name)
				}
			}
		}
	}
}
