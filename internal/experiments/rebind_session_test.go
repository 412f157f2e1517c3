package experiments_test

import (
	"context"
	"sync/atomic"
	"testing"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/experiments"
	"github.com/climate-rca/rca/internal/model"
)

// rebindRuns gives every run of TestSessionParamScenariosRebind its own
// corpus seed: compiled programs are shared process-wide, so a repeated
// run (-count N) over the same corpus would find its clean shape
// already compiled.
var rebindRuns atomic.Int64

// TestSessionParamScenariosRebind runs CLEAN and then three parameter
// perturbations on one store-backed session. The perturbations differ
// from the clean tree only in module-level parameter initializers, so
// the session compiles exactly one program and rebinds it three times;
// every outcome must be byte-identical to a tree-walker session's.
func TestSessionParamScenariosRebind(t *testing.T) {
	cfg := corpus.Config{AuxModules: 8, Seed: 9100 + uint64(rebindRuns.Add(1))}
	scs := paramScenarios()
	run := func(opts ...experiments.Option) (*experiments.Session, []string) {
		t.Helper()
		opts = append([]experiments.Option{experiments.WithEnsembleSize(12), experiments.WithExpSize(4)}, opts...)
		s := experiments.NewSession(cfg, opts...)
		var texts []string
		for _, sc := range scs {
			o, err := s.Run(context.Background(), sc)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name(), err)
			}
			texts = append(texts, rca.FormatOutcome(o))
		}
		return s, texts
	}

	store, err := artifact.Open("")
	if err != nil {
		t.Fatal(err)
	}
	s, got := run(experiments.WithArtifacts(store))
	hits, misses := s.CompileCacheStats()
	if misses != 1 || s.ProgramRebinds() < 3 {
		t.Fatalf("compile misses=%d rebinds=%d (hits=%d); want exactly 1 miss and at least 3 rebinds",
			misses, s.ProgramRebinds(), hits)
	}

	t.Logf("compile hits=%d misses=%d rebinds=%d", hits, misses, s.ProgramRebinds())
	_, want := run(experiments.WithEngine(model.EngineTree))
	for i := range scs {
		if got[i] != want[i] {
			t.Errorf("%s: bytecode outcome differs from the tree walker's\n--- bytecode\n%s--- tree\n%s",
				scs[i].Name(), got[i], want[i])
		}
	}
}
