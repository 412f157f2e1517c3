package rca

import (
	"context"
	"testing"

	"github.com/climate-rca/rca/internal/experiments"
)

// TestBatchedCatalogBytesIdentical pins the batched execution mode's
// determinism contract at the outermost boundary: running catalog
// scenarios with members batched onto lockstep struct-of-arrays VMs
// (the default batch width) must produce byte-identical
// FormatOutcome reports at every parallelism level — and identical to
// one-lane batches (the experiments.WithBatch(1) test hook), whose
// bytes TestEnginesBitIdenticalAcrossCatalog pins to the tree walker.
// Under -race this doubles as the data-race check for the batched
// worker pools.
func TestBatchedCatalogBytesIdentical(t *testing.T) {
	cfg := CorpusConfig{AuxModules: 25, Seed: 2}
	scenarios := []Scenario{GOFFGRATCH, WSUBBUG}
	ctx := context.Background()

	run := func(opts ...Option) []string {
		t.Helper()
		base := []Option{WithEnsembleSize(12), WithExpSize(4)}
		s := NewSession(cfg, append(base, opts...)...)
		outs, err := s.RunAll(ctx, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		texts := make([]string, len(outs))
		for i, o := range outs {
			texts[i] = FormatOutcome(o)
		}
		return texts
	}

	// Sequential one-lane reference: every member on its own VM.
	ref := run(experiments.WithBatch(1), WithParallelism(1))
	for _, par := range []int{1, 2, 8} {
		got := run(WithParallelism(par)) // default batching on
		for i := range scenarios {
			if got[i] != ref[i] {
				t.Fatalf("%s: batched output at parallelism %d differs from one-lane reference\n--- batched ---\n%s--- one-lane ---\n%s",
					scenarios[i].Name(), par, got[i], ref[i])
			}
		}
	}
	// An odd batch width that doesn't divide the set sizes must agree too.
	got := run(experiments.WithBatch(5), WithParallelism(3))
	for i := range scenarios {
		if got[i] != ref[i] {
			t.Fatalf("%s: batch width 5 output differs from one-lane reference", scenarios[i].Name())
		}
	}
}
