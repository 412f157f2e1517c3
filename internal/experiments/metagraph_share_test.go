package experiments_test

import (
	"context"
	"reflect"
	"testing"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/coverage"
	"github.com/climate-rca/rca/internal/experiments"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/model"
)

// paramScenarios are CLEAN plus one perturbation of each ensemble
// parameter: four source fingerprints, one program shape.
func paramScenarios() []experiments.Scenario {
	return []experiments.Scenario{
		experiments.NewScenario("CLEAN", experiments.ScenarioOptions{}),
		experiments.NewScenario("TURB", experiments.ScenarioOptions{}, experiments.PerturbParameter("turbcoef", 0.013)),
		experiments.NewScenario("FMAGAIN", experiments.ScenarioOptions{}, experiments.PerturbParameter("fmagain", 3000.3)),
		experiments.NewScenario("AUXFMA", experiments.ScenarioOptions{}, experiments.PerturbParameter("auxfmagain", 0.0101)),
	}
}

// scaleScenarios scale one micro_mg_tend assignment by two factors:
// two source fingerprints that differ only in a statement literal, so
// one program shape (not CLEAN's: the scaling adds a multiplication).
func scaleScenarios() []experiments.Scenario {
	scale := func(name string, f float64) experiments.Scenario {
		return experiments.NewScenario(name, experiments.ScenarioOptions{},
			experiments.ScaleAssignment{Module: "micro_mg", Subprogram: "micro_mg_tend", Var: "pre", Factor: f})
	}
	return []experiments.Scenario{scale("PRE1", 1.00001), scale("PRE2", 1.0001)}
}

// TestSharedMetagraphMatchesFreshBuild is the differential check
// behind sharing: on the bench corpus, the one Compiled a session hands
// every parameter variant, and every `scale:` variant of one
// assignment, equals (reflect.DeepEqual, unexported fields included) a
// fresh trace → filter → Build of that variant's own modules. The
// scale variants differ only in a statement literal, so this also pins
// that the metagraph reads no literal value.
func TestSharedMetagraphMatchesFreshBuild(t *testing.T) {
	ctx := context.Background()
	s := experiments.NewSession(corpus.Config{AuxModules: 40, Seed: 2})
	for _, group := range [][]experiments.Scenario{paramScenarios(), scaleScenarios()} {
		var shared *experiments.Compiled
		for _, sc := range group {
			comp, err := s.Compile(ctx, sc)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name(), err)
			}
			if shared == nil {
				shared = comp
			} else if comp != shared {
				t.Fatalf("%s: got its own experiments.Compiled; want the one %s built", sc.Name(), group[0].Name())
			}
			if !reflect.DeepEqual(comp, freshCompiled(t, s, sc)) {
				t.Fatalf("%s: shared experiments.Compiled differs from a fresh build", sc.Name())
			}
		}
	}
	if n := s.MetagraphShares(); n != 4 {
		t.Fatalf("MetagraphShares = %d; want 4 (every variant shares the first of its group's)", n)
	}
}

// freshCompiled traces, filters and builds sc's experimental tree
// without the session's compile path.
func freshCompiled(t *testing.T, s *experiments.Session, sc experiments.Scenario) *experiments.Compiled {
	t.Helper()
	b, err := s.Builds(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	tr := coverage.NewTrace()
	if _, err := b.Exper.Run(model.RunConfig{StopAfter: 2, Trace: tr.Record,
		RNG: b.ExpRunCfg.RNG, FMA: b.ExpRunCfg.FMA}); err != nil {
		t.Fatal(err)
	}
	filtered, rep := coverage.Filter(b.Exper.Modules, tr)
	mg, err := metagraph.Build(filtered)
	if err != nil {
		t.Fatal(err)
	}
	return &experiments.Compiled{Coverage: rep, Metagraph: mg}
}

// TestSessionParamScenariosShareMetagraph runs CLEAN and three
// parameter perturbations concurrently on one store-backed session
// (RunAll): all four get one *Compiled, three of them through
// MetagraphShares, the store builds nothing (the session persists no
// corpus or metagraph), and every outcome is byte-identical to a fresh
// session's run of that scenario alone.
func TestSessionParamScenariosShareMetagraph(t *testing.T) {
	ctx := context.Background()
	cfg := corpus.Config{AuxModules: 8, Seed: 9300}
	opts := []experiments.Option{experiments.WithEnsembleSize(12), experiments.WithExpSize(4)}
	store, err := artifact.Open("")
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSession(cfg, append(opts, experiments.WithArtifacts(store))...)
	scs := paramScenarios()
	outs, err := s.RunAll(ctx, scs)
	if err != nil {
		t.Fatal(err)
	}
	var shared *experiments.Compiled
	for i, sc := range scs {
		o := outs[i]
		comp, err := s.Compile(ctx, sc)
		if err != nil {
			t.Fatal(err)
		}
		if shared == nil {
			shared = comp
		}
		if comp != shared || o.Metagraph != shared.Metagraph {
			t.Fatalf("%s: got its own Compiled; want CLEAN's", sc.Name())
		}
		fresh, err := experiments.NewSession(cfg, opts...).Run(ctx, sc)
		if err != nil {
			t.Fatalf("%s fresh: %v", sc.Name(), err)
		}
		if got, want := rca.FormatOutcome(o), rca.FormatOutcome(fresh); got != want {
			t.Errorf("%s: shared-metagraph outcome differs from a fresh session's\n--- shared\n%s--- fresh\n%s",
				sc.Name(), got, want)
		}
	}
	if n := s.MetagraphShares(); n != 3 {
		t.Fatalf("MetagraphShares = %d; want 3", n)
	}
	if n := store.Stats().Builds; n != 0 {
		t.Fatalf("store builds = %d; want 0 (the session stores no corpus or metagraph)", n)
	}
}
