package rca

import (
	"context"
	"testing"

	"github.com/climate-rca/rca/internal/experiments"
	"github.com/climate-rca/rca/internal/model"
)

// equivSession builds a small-corpus session on the given engine with
// an aggressive parallel fan-out, so the equivalence holds under
// concurrent scheduling too (run with -race in CI). The tree walker is
// reachable only through experiments.WithEngine: it is the VM's
// differential reference, not a user-facing choice.
func equivSession(engine model.EngineKind) *Session {
	return NewSession(CorpusConfig{AuxModules: 16, Seed: 4},
		WithEnsembleSize(14), WithExpSize(5),
		WithParallelism(8), WithWorkers(4),
		experiments.WithEngine(engine))
}

// TestEnginesBitIdenticalAcrossCatalog is the deterministic-equivalence
// pin for the execution engines: Session.RunAll over the full §6 + §8
// scenario catalog must produce byte-identical FormatOutcome renderings
// on the bytecode VM and the tree walker. The paper's verdicts depend
// on exact floating-point semantics (FMA fusion, PRNG sequences,
// evaluation order), so nothing short of byte equality is acceptable.
func TestEnginesBitIdenticalAcrossCatalog(t *testing.T) {
	ctx := context.Background()
	scs := AllExperiments()

	tree, err := equivSession(model.EngineTree).RunAll(ctx, scs)
	if err != nil {
		t.Fatalf("tree engine: %v", err)
	}
	vm, err := equivSession(model.EngineBytecode).RunAll(ctx, scs)
	if err != nil {
		t.Fatalf("bytecode engine: %v", err)
	}
	if len(tree) != len(vm) {
		t.Fatalf("outcome counts differ: %d vs %d", len(tree), len(vm))
	}
	for i := range tree {
		to, vo := FormatOutcome(tree[i]), FormatOutcome(vm[i])
		if to != vo {
			t.Errorf("%s: FormatOutcome bytes differ\n--- tree ---\n%s--- bytecode ---\n%s",
				scs[i].Name(), to, vo)
		}
	}
}

// TestEnginesTable1Identical extends the pin to the selective-FMA
// study: FormatTable1 bytes must match across engines.
func TestEnginesTable1Identical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	setup := Table1Setup{ExpSize: 3, TopK: 4, RandomSamples: 2}

	rowsTree, err := equivSession(model.EngineTree).Table1(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	rowsVM, err := equivSession(model.EngineBytecode).Table1(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable1(rowsTree) != FormatTable1(rowsVM) {
		t.Fatalf("Table1 bytes differ:\n--- tree ---\n%s--- bytecode ---\n%s",
			FormatTable1(rowsTree), FormatTable1(rowsVM))
	}
}
