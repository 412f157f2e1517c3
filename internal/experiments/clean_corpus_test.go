package experiments_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/experiments"
)

// cleanOf returns the corpus of s's control build.
func cleanOf(t *testing.T, s *experiments.Session) *corpus.Corpus {
	t.Helper()
	b, err := s.Builds(context.Background(), experiments.NewScenario("CLEAN", experiments.ScenarioOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	return b.Control.Corpus
}

// TestCleanCorpusSharedImmutable pins the process-wide clean corpus:
// two sessions of one configuration get the same *corpus.Corpus, a
// catalog RunAll and a scenario search running at once on such
// sessions leave it equal to a fresh Generate (run it under -race), and
// a session's `param:` builds add nothing to the table.
func TestCleanCorpusSharedImmutable(t *testing.T) {
	ctx := context.Background()
	cfg := corpus.Config{AuxModules: 8, Seed: 9310}
	opts := []experiments.Option{experiments.WithEnsembleSize(12), experiments.WithExpSize(4)}
	s1, s2 := experiments.NewSession(cfg, opts...), experiments.NewSession(cfg, opts...)
	shared := cleanOf(t, s1)
	if cleanOf(t, s2) != shared {
		t.Fatal("two sessions of one configuration hold different clean corpora")
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		outs, err := s1.RunAll(ctx, rca.Experiments())
		if err != nil || len(outs) != len(rca.Experiments()) {
			t.Errorf("catalog: %d outcomes, %v", len(outs), err)
		}
	}()
	go func() {
		defer wg.Done()
		scale := func(v string, f float64) rca.Injection {
			return rca.ScaleAssignment{Module: "micro_mg", Subprogram: "micro_mg_tend", Var: v, Factor: f}
		}
		res, err := rca.Search(ctx, s2, rca.SearchOptions{
			Pool:      []rca.Injection{scale("tlat", 1.00015), scale("qsout", 1.0001), scale("pre", 1.0003)},
			Objective: rca.SearchMaxDelta,
			MaxSubset: 2,
		})
		if err != nil {
			t.Error(err)
		} else if res.Stats.Evaluations < 2 {
			t.Errorf("search evaluated %d subsets; want the pool's probes", res.Stats.Evaluations)
		}
	}()
	wg.Wait()
	if !reflect.DeepEqual(shared, corpus.Generate(cfg)) {
		t.Fatal("the shared clean corpus changed under a catalog run and a search")
	}

	pcfg := corpus.Config{AuxModules: 8, Seed: 9311}
	ps := experiments.NewSession(pcfg, opts...)
	for _, sc := range paramScenarios() {
		if _, err := ps.Builds(ctx, sc); err != nil {
			t.Fatal(err)
		}
	}
	var held []corpus.Config
	for _, c := range experiments.CleanCorpusConfigs() {
		if c.Seed == pcfg.Seed {
			held = append(held, c)
		}
	}
	if !reflect.DeepEqual(held, []corpus.Config{pcfg}) {
		t.Fatalf("after param builds the table holds %+v for the session's seed; want only the session's own configuration", held)
	}
}
