package core_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/climate-rca/rca/internal/core"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/experiments"
)

// TestRefineMemoCatalogSlices runs the refinement memo on the real
// slice subgraphs of the six §6 investigations: with one memo shared
// across all of them (as a Session shares it), a second pass over the
// catalog hits on every analyzed iteration, and every Result of both
// passes equals a cold call's.
func TestRefineMemoCatalogSlices(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six catalog slices")
	}
	ctx := context.Background()
	s := experiments.NewSession(corpus.Config{AuxModules: 40, Seed: 2},
		experiments.WithEnsembleSize(30), experiments.WithExpSize(8))
	scenarios := []experiments.Scenario{experiments.WSUBBUG, experiments.RANDMT,
		experiments.GOFFGRATCH, experiments.AVX2, experiments.RANDOMBUG, experiments.DYN3BUG}
	memo := core.NewMemo()
	for pass := 0; pass < 2; pass++ {
		for _, sc := range scenarios {
			sl, err := s.Slice(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := s.Compile(ctx, sc)
			if err != nil {
				t.Fatal(err)
			}
			sampler := core.ReachabilitySampler(comp.Metagraph.G, sl.BugNodes)
			sub, nodeMap := sl.Slice.Sub, sl.Slice.NodeMap
			cold, err := core.Refine(sub, nodeMap, sampler, sl.BugNodes, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, missesBefore := memo.Stats()
			got, err := core.Refine(sub, nodeMap, sampler, sl.BugNodes, core.Options{Memo: memo})
			if err != nil {
				t.Fatal(err)
			}
			if _, misses := memo.Stats(); pass == 1 && misses != missesBefore {
				t.Fatalf("%s: second pass missed the memo", sc.Name())
			}
			if !reflect.DeepEqual(got, cold) {
				t.Fatalf("%s pass %d: memoized refinement diverges:\ncold %+v\ngot  %+v", sc.Name(), pass, cold, got)
			}
		}
	}
	hits, misses := memo.Stats()
	if misses == 0 || hits < misses || uint64(memo.Len()) != misses {
		t.Fatalf("memo stats: %d hits, %d misses, %d keys", hits, misses, memo.Len())
	}
	t.Logf("six catalog slices, two passes: %d hits, %d misses", hits, misses)
}
