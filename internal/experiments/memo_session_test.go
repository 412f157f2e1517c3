package experiments_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/experiments"
)

// catalogDigestFile holds the committed sha-256 of the six §6
// investigations' concatenated FormatOutcome bytes at the corpus and
// ensemble sizes below (the benchmark's catalog golden).
const catalogDigestFile = "../../bench/testdata/catalog_1.sha256"

// TestSessionRefineMemoSharedAcrossScenarios runs the six catalog
// scenarios concurrently in reverse order on one session, so other
// scenarios warm the refinement memo before the ones that would have
// warmed it in paper order. The outcome bytes must equal the committed
// golden, and the memo must have run the analysis exactly once per
// distinct subgraph: concurrent misses on one key share one run.
func TestSessionRefineMemoSharedAcrossScenarios(t *testing.T) {
	raw, err := os.ReadFile(catalogDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := strings.Cut(strings.TrimSpace(string(raw)), " ")
	if !ok {
		t.Fatalf("%s: want \"0 <sha256>\", got %q", catalogDigestFile, raw)
	}

	scenarios := []experiments.Scenario{experiments.WSUBBUG, experiments.RANDMT,
		experiments.GOFFGRATCH, experiments.AVX2, experiments.RANDOMBUG, experiments.DYN3BUG}
	reversed := make([]experiments.Scenario, len(scenarios))
	for i, sc := range scenarios {
		reversed[len(scenarios)-1-i] = sc
	}
	s := experiments.NewSession(corpus.Config{AuxModules: 40, Seed: 2},
		experiments.WithEnsembleSize(30), experiments.WithExpSize(8),
		experiments.WithWorkers(len(scenarios)))
	outs, err := s.RunAll(context.Background(), reversed)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for i := range outs {
		text.WriteString(rca.FormatOutcome(outs[len(outs)-1-i]))
	}
	sum := sha256.Sum256([]byte(text.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("catalog outcomes drifted from the golden digest %s (got %s):\n%s", want, got, text.String())
	}

	hits, misses := s.RefineMemoStats()
	if keys := experiments.RefineMemoLen(s); misses != uint64(keys) {
		t.Fatalf("memo ran %d analyses for %d distinct keys", misses, keys)
	}
	if hits == 0 {
		t.Fatalf("no scenario reused another's analysis (%d misses)", misses)
	}
	t.Logf("refinement memo: %d hits, %d misses", hits, misses)
}
