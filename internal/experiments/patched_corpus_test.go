package experiments

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fortran"
)

// artifactTestCfg is the small corpus the corpus-build tests share.
func artifactTestCfg() corpus.Config { return corpus.Config{AuxModules: 10, Seed: 5} }

// TestPatchedCorpusMatchesGenerate pins corpusFor's shortcut: a
// scenario over the session's configuration patches the control
// build's corpus instead of generating its own, and the result must
// equal, field for field (unexported configuration included), the
// corpus of patching a freshly generated one. Every catalog scenario
// with source patches is checked, plus a three-way `scale:`
// composition.
func TestPatchedCorpusMatchesGenerate(t *testing.T) {
	ctx := context.Background()
	cfg := artifactTestCfg()
	scenarios := append([]Scenario(nil), catalog...)
	scenarios = append(scenarios, NewScenario("SCALE3", ScenarioOptions{},
		ScaleAssignment{Module: "micro_mg", Subprogram: "micro_mg_tend", Var: "pre", Factor: 1.00002},
		ScaleAssignment{Module: "micro_mg", Subprogram: "micro_mg_tend", Var: "tlat", Factor: 0.99997},
		ScaleAssignment{Module: "micro_mg", Subprogram: "micro_mg_tend", Var: "qric", Factor: 1.00005}))

	s := NewSession(cfg)
	patched := 0
	for _, sc := range scenarios {
		p, err := buildPlan(cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.patches) == 0 {
			continue
		}
		patched++
		want, err := corpus.Apply(corpus.Generate(p.cfg), p.patches...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.runnerFor(ctx, p.sourceKey(), p.cfg, p.patches)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if !reflect.DeepEqual(r.Corpus, want) {
			t.Errorf("%s: patched corpus differs from Apply(Generate(cfg))", sc.Name())
		}
	}
	if patched < 5 {
		t.Fatalf("only %d scenarios carry source patches", patched)
	}
}

// TestPatchedSourcesWithoutControlRunner requires a patched build to
// take the session's clean corpus, not the control runner: Sources of a
// `scale:` scenario succeeds, and builds no control runner, even when
// the control build has failed, while Builds still reports the control
// failure. The control runner built later runs the same clean corpus.
func TestPatchedSourcesWithoutControlRunner(t *testing.T) {
	ctx := context.Background()
	sc := NewScenario("SCALE", ScenarioOptions{},
		ScaleAssignment{Module: "micro_mg", Subprogram: "micro_mg_tend", Var: "pre", Factor: 1.00002})

	s := NewSession(artifactTestCfg())
	if _, err := s.Sources(ctx, sc); err != nil {
		t.Fatal(err)
	}
	if n := len(s.runnerList); n != 1 {
		t.Errorf("Sources of a patched scenario built %d runners, want its own only", n)
	}
	control, err := s.control(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if control.Corpus != s.clean.val {
		t.Error("the control runner does not run the session's clean corpus")
	}

	s = NewSession(artifactTestCfg())
	failed := errors.New("control build failed")
	c := keyedCell(&s.mu, s.runners, s.cleanKey())
	c.done, c.err = true, failed
	files, err := s.Sources(ctx, sc)
	if err != nil {
		t.Fatalf("Sources with a failed control build: %v", err)
	}
	if len(files) == 0 {
		t.Fatal("Sources returned no files")
	}
	if _, err := s.Builds(ctx, sc); !errors.Is(err, failed) {
		t.Errorf("Builds with a failed control build: %v, want %v", err, failed)
	}
}

// TestParamCorpusDerivedMatchesGenerate pins corpusFor's `param:` path:
// a scenario perturbing ensemble parameters (one, a pair, or one under
// a catalog patch) derives its corpus from the session's clean corpus,
// and the result must equal, field for field, the corpus of generating
// its configuration (and patching it), while its runner's modules equal
// a fresh parse of its texts, shape digests and literals included.
// CI runs it at full size; -short samples fewer values.
func TestParamCorpusDerivedMatchesGenerate(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 2
	}
	ctx := context.Background()
	s := NewSession(corpus.Config{AuxModules: 40, Seed: 2})
	r := rand.New(rand.NewSource(11))
	params := []struct {
		name string
		def  float64
	}{{"turbcoef", 0.01}, {"fmagain", 3000}, {"auxfmagain", 0.01}}
	value := func(def float64) float64 {
		v := def * (0.5 + 1.5*r.Float64())
		if r.Intn(4) == 0 {
			v = -v
		}
		return v
	}
	var scenarios []Scenario
	for k := 0; k < n; k++ {
		for i, p := range params {
			q := params[(i+1)%len(params)]
			one := PerturbParameter(p.name, value(p.def))
			scenarios = append(scenarios,
				NewScenario("ONE", ScenarioOptions{}, one),
				NewScenario("PAIR", ScenarioOptions{}, one, PerturbParameter(q.name, value(q.def))),
				NewScenario("PATCHED", ScenarioOptions{}, append([]Injection{one}, catalog[k%len(catalog)].Injections()...)...))
		}
	}
	scenarios = append(scenarios,
		NewScenario("EXP", ScenarioOptions{}, PerturbParameter("fmagain", 1e300), PerturbParameter("turbcoef", -1e-300)),
		NewScenario("DEFAULT", ScenarioOptions{}, PerturbParameter("auxfmagain", 0.01)))
	for _, sc := range scenarios {
		p, err := buildPlan(s.cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		label := joinIDs(p.sourceIDs)
		run, err := s.runnerFor(ctx, p.sourceKey(), p.cfg, p.patches)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := corpus.Generate(p.cfg)
		if len(p.patches) > 0 {
			if want, err = corpus.Apply(want, p.patches...); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(run.Corpus, want) {
			t.Fatalf("%s: derived corpus differs from Apply(Generate(cfg))", label)
		}
		var fresh []*fortran.Module
		for _, f := range run.Corpus.Files {
			ms, err := fortran.ParseFile(f.Source)
			if err != nil {
				t.Fatalf("%s: %s: %v", label, f.Name, err)
			}
			fresh = append(fresh, ms...)
		}
		if !reflect.DeepEqual(run.Modules, fresh) {
			t.Fatalf("%s: runner modules differ from a fresh parse of the derived texts", label)
		}
	}
}
