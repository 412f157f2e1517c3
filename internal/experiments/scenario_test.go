package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/model"
	"github.com/climate-rca/rca/internal/rng"
)

// assignTarget names one assignment statement of the corpus.
type assignTarget struct {
	module, sub, varName string
	occurrence           int
}

// enumerateAssignments walks the whole generated corpus and returns
// every assignment as a patchable target, in deterministic order.
func enumerateAssignments(t testing.TB, c *corpus.Corpus) []assignTarget {
	t.Helper()
	var out []assignTarget
	for _, f := range c.Files {
		mods, err := fortran.ParseFile(f.Source)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, m := range mods {
			for _, sub := range m.Subprograms {
				counts := map[string]int{}
				fortran.WalkStmts(sub.Body, func(s fortran.Stmt) {
					as, ok := s.(*fortran.AssignStmt)
					if !ok {
						return
					}
					v := as.LHS.Canonical()
					out = append(out, assignTarget{
						module: m.Name, sub: sub.Name, varName: v,
						occurrence: counts[v],
					})
					counts[v]++
				})
			}
		}
	}
	return out
}

// TestArbitraryPatchInjectionsProperty is the open-world property the
// Scenario API rests on: an arbitrary single-subprogram scale
// injection over ANY assignment in the corpus must (a) build a plan,
// (b) produce a patched source tree that still parses and interprets,
// and (c) yield a deterministic corpus fingerprint — equal across
// independent applications, different from the clean tree.
func TestArbitraryPatchInjectionsProperty(t *testing.T) {
	cfg := corpus.Config{AuxModules: 10, Seed: 5}
	clean := corpus.Generate(cfg)
	targets := enumerateAssignments(t, clean)
	if len(targets) < 50 {
		t.Fatalf("only %d assignments enumerated", len(targets))
	}

	// A seeded sample keeps the property run fast while ranging over
	// the whole corpus (drivers, physics, aux modules alike).
	gen := rng.NewLCG(99)
	const samples = 25
	for i := 0; i < samples; i++ {
		tgt := targets[gen.Intn(len(targets))]
		factor := 1.0 + float64(gen.Intn(2000)-1000)/1e6 // 1 ± 0.001
		if factor == 1.0 {
			factor = 1.000001
		}
		name := fmt.Sprintf("%s/%s.%s#%d*=%g", tgt.module, tgt.sub, tgt.varName, tgt.occurrence, factor)
		t.Run(name, func(t *testing.T) {
			inj := ScaleAssignment{Module: tgt.module, Subprogram: tgt.sub,
				Var: tgt.varName, Occurrence: tgt.occurrence, Factor: factor}
			sc := NewScenario(name, ScenarioOptions{}, inj)

			p, err := buildPlan(cfg, sc)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			patched, err := corpus.Apply(clean, p.patches...)
			if err != nil {
				t.Fatalf("apply: %v", err)
			}

			// Still parses and interprets: one short run of the
			// patched model must execute.
			r, err := model.NewRunner(patched)
			if err != nil {
				t.Fatalf("parse patched corpus: %v", err)
			}
			if _, err := r.Run(model.RunConfig{Member: 0, StopAfter: 1}); err != nil {
				t.Fatalf("interpret patched corpus: %v", err)
			}

			// Deterministic fingerprint, distinct from clean.
			again, err := corpus.Apply(clean, p.patches...)
			if err != nil {
				t.Fatal(err)
			}
			if patched.Fingerprint() != again.Fingerprint() {
				t.Fatal("fingerprint not deterministic across applications")
			}
			if patched.Fingerprint() == clean.Fingerprint() {
				t.Fatal("patch did not change the corpus fingerprint")
			}

			// The scenario cache key is equally stable.
			k1, err := ScenarioFingerprint(cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			k2, err := ScenarioFingerprint(cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			if k1 != k2 {
				t.Fatalf("scenario fingerprint unstable: %q vs %q", k1, k2)
			}
		})
	}
}

// FuzzParseInjection: the CLI injection grammar must never panic, and
// anything it accepts must carry a stable, non-empty fingerprint and
// lower onto a plan without panicking.
func FuzzParseInjection(f *testing.F) {
	for _, seed := range []string{
		"micro_mg_tend.ratio*=1.0001",
		"aero_run.wsub:0.20=>2.00",
		"microp_aero/aero_run.wsub#1:0.20=>2.00",
		"prng=mt",
		"fma=all",
		"fma=micro_mg,dyn3",
		"param:turbcoef=0.02",
		"", "x", "a.b", "a.b*=", "a.b:=>", "param:=1", "fma=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		inj, err := ParseInjection(s)
		if err != nil {
			return
		}
		if inj.ID() == "" {
			t.Fatalf("accepted injection %q has empty fingerprint", s)
		}
		if inj.ID() != inj.ID() {
			t.Fatalf("unstable fingerprint for %q", s)
		}
		p := &plan{params: map[string]bool{}, patchTargets: map[string]bool{}}
		_ = inj.apply(p) // must not panic; errors are fine
	})
}

func TestParseInjectionGrammar(t *testing.T) {
	cases := []struct {
		in, id string
	}{
		{"micro_mg_tend.ratio*=1.0001", "scale:micro_mg_tend.ratio*1.0001"},
		{"aero_run.wsub:0.20=>2.00", "patch:aero_run.wsub:0.20=>2.00"},
		{"microp_aero/aero_run.wsub:0.20=>2.00", "patch:microp_aero/aero_run.wsub:0.20=>2.00"},
		{"dyn3_hydro.pint#2*=1.01", "scale:dyn3_hydro.pint#2*1.01"},
		{"prng=mt", "prng:mt19937"},
		{"fma=all", "fma:*"},
		{"fma=dyn3,micro_mg", "fma:dyn3,micro_mg"},
		{"param:turbcoef=0.02", "param:turbcoef=0.02"},
	}
	for _, c := range cases {
		inj, err := ParseInjection(c.in)
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		if inj.ID() != c.id {
			t.Errorf("%q: ID = %q, want %q", c.in, inj.ID(), c.id)
		}
	}
	for _, bad := range []string{"", "nonsense", "a.b*=x", "param:bogus=1",
		"prng=xorshift", "fma=", "a:old=>new"} {
		if _, err := ParseInjection(bad); err == nil {
			t.Errorf("%q: expected parse error", bad)
		}
	}
}

func TestScenarioFromJSON(t *testing.T) {
	sc, err := ScenarioFromJSON([]byte(`{
		"name": "WSUB+MT", "camonly": true, "selectk": 3,
		"inject": ["aero_run.wsub:0.20=>2.00", "prng=mt"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != "WSUB+MT" {
		t.Fatalf("name = %q", sc.Name())
	}
	if got := sc.Options(); !got.CAMOnly || got.SelectK != 3 {
		t.Fatalf("options = %+v", got)
	}
	if n := len(sc.Injections()); n != 2 {
		t.Fatalf("injections = %d", n)
	}
	for _, bad := range []string{
		`{`,
		`{"inject": ["prng=mt"]}`,
		`{"name": "X", "inject": ["nope"]}`,
	} {
		if _, err := ScenarioFromJSON([]byte(bad)); err == nil {
			t.Errorf("%s: expected error", bad)
		}
	}
}

// TestSpecScenarioConversion pins a prewired catalog value: RAND-MT
// has its name, options and catalog injection set, and the wire
// format's {"experiment": NAME} reference resolves to it.
func TestSpecScenarioConversion(t *testing.T) {
	sc := RANDMT
	if sc.Name() != "RAND-MT" {
		t.Fatalf("name = %q", sc.Name())
	}
	injs := sc.Injections()
	if len(injs) != 1 || injs[0].ID() != "prng:mt19937" {
		t.Fatalf("injections = %v", injs)
	}
	if o := sc.Options(); !o.CAMOnly || o.SelectK != 5 {
		t.Fatalf("options = %+v", o)
	}
	if wire, ok := catalogScenario("rand-mt"); !ok || wire != sc {
		t.Fatalf("catalog reference resolves to %v, %v", wire, ok)
	}
}

// TestSessionRejectsCanceledMemoization: a canceled stage is retried,
// not served from cache, when called again with a live context.
func TestSessionRejectsCanceledMemoization(t *testing.T) {
	s := NewSession(corpus.Config{AuxModules: 10, Seed: 5},
		WithEnsembleSize(8), WithExpSize(3))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Fingerprint(canceled); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if _, err := s.Fingerprint(context.Background()); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
}

// TestCellWaiterHonorsOwnContext: a getter blocked behind another
// caller's in-flight build returns promptly when its own context is
// canceled, instead of riding out the foreign build.
func TestCellWaiterHonorsOwnContext(t *testing.T) {
	var c cell[int]
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.get(context.Background(), func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.get(ctx, func() (int, error) { return 0, nil }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("waiter err = %v, want ErrCanceled", err)
	}

	// The original build completes and memoizes; a live-context getter
	// sees it without rebuilding.
	close(release)
	v, err := c.get(context.Background(), func() (int, error) {
		t.Fatal("rebuilt a memoized cell")
		return 0, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("got %d, %v", v, err)
	}
}

// TestVerdictSharedAcrossSlicingOptions: verdicts key on the build
// fingerprint, so scenarios differing only in slicing options (AVX2
// vs AVX2-FULL) share one experimental set.
func TestVerdictSharedAcrossSlicingOptions(t *testing.T) {
	s := NewSession(corpus.Config{AuxModules: 10, Seed: 5},
		WithEnsembleSize(8), WithExpSize(3))
	ctx := context.Background()
	a, err := s.Verdict(ctx, AVX2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Verdict(ctx, AVX2Full)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("AVX2 and AVX2-FULL did not share the cached verdict")
	}
}

// TestCacheKeysResistIDCollisions: injection fields are user-controlled
// strings, so the fingerprint join is length-prefixed — one injection
// whose ID spells out the concatenation of two others must not share a
// cache key with them.
func TestCacheKeysResistIDCollisions(t *testing.T) {
	cfg := corpus.Config{AuxModules: 5, Seed: 1}
	one := NewScenario("one", ScenarioOptions{},
		SourceReplace{Subprogram: "sub", Var: "v", Old: "o", New: "a+scale:s.t*2.0"})
	two := NewScenario("two", ScenarioOptions{},
		SourceReplace{Subprogram: "sub", Var: "v", Old: "o", New: "a"},
		ScaleAssignment{Subprogram: "s", Var: "t", Factor: 2.0})
	k1, err := ScenarioFingerprint(cfg, one)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ScenarioFingerprint(cfg, two)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatalf("crafted injection collides with a two-injection scenario: %q", k1)
	}
}

// TestSiteOverrideSharesBuildCaches: Site steers defect-site
// resolution only, so scenarios differing only in Site share corpus
// runners and compiled metagraphs while keeping distinct
// investigation-layer keys.
func TestSiteOverrideSharesBuildCaches(t *testing.T) {
	cfg := corpus.Config{AuxModules: 10, Seed: 5}
	s := NewSession(cfg, WithEnsembleSize(8), WithExpSize(3))
	ctx := context.Background()

	plain := NewScenario("plain", ScenarioOptions{}, fromBugPatch(corpus.WsubPatch, ""))
	sited := NewScenario("sited", ScenarioOptions{}, WsubDefect()) // Site: "wsub"

	a, err := s.Compile(ctx, plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Compile(ctx, sited)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Site override forced a metagraph recompile")
	}

	k1, err := ScenarioFingerprint(cfg, plain)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ScenarioFingerprint(cfg, sited)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("differing Site overrides share a scenario fingerprint")
	}
}

// TestParamZeroRejected: corpus.Config reads a zero parameter as unset,
// so `param:NAME=0` would run the default while reporting a
// perturbation. Every way a parameter enters a plan (the compact
// syntax, the library constructor, the scenario JSON rcad reads)
// refuses it, saying that 0 means the default; a nonzero value passes.
func TestParamZeroRejected(t *testing.T) {
	cfg := corpus.Config{AuxModules: 4, Seed: 1}
	paths := []struct {
		name string
		plan func(param, value string) error
	}{
		{"ParseInjection", func(param, value string) error {
			_, err := ParseInjection("param:" + param + "=" + value)
			return err
		}},
		{"PerturbParameter", func(param, value string) error {
			v, err := parseFinite(value)
			if err != nil {
				t.Fatal(err)
			}
			_, err = buildPlan(cfg, NewScenario("P", ScenarioOptions{}, PerturbParameter(param, v)))
			return err
		}},
		{"ScenarioFromJSON", func(param, value string) error {
			_, err := ScenarioFromJSON([]byte(`{"name": "P", "inject": ["param:` + param + `=` + value + `"]}`))
			return err
		}},
	}
	for _, param := range []string{"turbcoef", "fmagain", "auxfmagain"} {
		for _, p := range paths {
			for _, zero := range []string{"0", "-0", "0.0e3"} {
				err := p.plan(param, zero)
				if err == nil || !strings.Contains(err.Error(), "0 means the default value") {
					t.Errorf("%s: %s=%s: error %v, want one saying 0 means the default value", p.name, param, zero, err)
				}
			}
			if err := p.plan(param, "0.02"); err != nil {
				t.Errorf("%s: %s=0.02: %v", p.name, param, err)
			}
		}
	}
}
