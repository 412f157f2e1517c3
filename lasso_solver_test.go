package rca

import (
	"context"
	"testing"

	"github.com/climate-rca/rca/internal/experiments"
	"github.com/climate-rca/rca/internal/lasso"
)

// solverSession builds a small-corpus session on the given lasso
// solver at a chosen intra-investigation parallelism, so the
// equivalence holds under concurrent scheduling too (run with -race in
// CI).
func solverSession(sv lasso.Solver, par int) *Session {
	return NewSession(CorpusConfig{AuxModules: 16, Seed: 4},
		WithEnsembleSize(14), WithExpSize(5),
		WithParallelism(par), WithWorkers(4),
		experiments.WithLassoSolver(sv))
}

// TestLassoSolversBitIdenticalAcrossCatalog is the deterministic-
// equivalence pin for the lasso engines: Session.RunAll over the full
// §6 + §8 scenario catalog must produce byte-identical FormatOutcome
// renderings with the coordinate-screened engine (the pipeline's) and
// the cold dense ISTA oracle, at parallelism 1, 2 and 8. The §3 selection the
// outcome prints depends on the exact truncated iterate trajectory, so
// nothing short of byte equality is acceptable.
func TestLassoSolversBitIdenticalAcrossCatalog(t *testing.T) {
	ctx := context.Background()
	scs := AllExperiments()

	for _, par := range []int{1, 2, 8} {
		ista, err := solverSession(lasso.SolverISTA, par).RunAll(ctx, scs)
		if err != nil {
			t.Fatalf("par %d: ista solver: %v", par, err)
		}
		cd, err := solverSession(lasso.SolverCD, par).RunAll(ctx, scs)
		if err != nil {
			t.Fatalf("par %d: cd solver: %v", par, err)
		}
		if len(ista) != len(cd) {
			t.Fatalf("par %d: outcome counts differ: %d vs %d", par, len(ista), len(cd))
		}
		for i := range ista {
			io, co := FormatOutcome(ista[i]), FormatOutcome(cd[i])
			if io != co {
				t.Errorf("par %d: %s: FormatOutcome bytes differ\n--- ista ---\n%s--- cd ---\n%s",
					par, scs[i].Name(), io, co)
			}
		}
	}
}

// TestLassoSolversTable1Identical extends the pin to the selective-FMA
// study: FormatTable1 bytes must match across solvers.
func TestLassoSolversTable1Identical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := context.Background()
	setup := Table1Setup{ExpSize: 3, TopK: 4, RandomSamples: 2}

	rowsISTA, err := solverSession(lasso.SolverISTA, 8).Table1(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	rowsCD, err := solverSession(lasso.SolverCD, 8).Table1(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable1(rowsISTA) != FormatTable1(rowsCD) {
		t.Fatalf("Table1 bytes differ:\n--- ista ---\n%s--- cd ---\n%s",
			FormatTable1(rowsISTA), FormatTable1(rowsCD))
	}
}
