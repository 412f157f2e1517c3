package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/climate-rca/rca/internal/lasso"
)

// TestLassoWarmMatchesColdOnCatalog pins the pipeline's lasso engine
// against its differential oracle on the real §6/§8 designs: for every
// catalog scenario, the classification problem selectOutputs hands to
// lasso.SelectK (control ensemble vs experimental runs over the ECT
// variables) must produce a bit-identical result — ranked indices,
// tuned lambda, fitted weights, intercept, iteration counts and path
// statistics — whether each lambda on the bisection path runs the
// coordinate-screened engine or is fitted by dense ISTA.
func TestLassoWarmMatchesColdOnCatalog(t *testing.T) {
	s := testSession()
	ctx := context.Background()
	fp, err := s.Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range catalog {
		v, err := s.Verdict(ctx, sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		p := selectionProblem(fp.Test.Vars(), fp.Ensemble, v.ExpRuns)
		k := sc.Options().SelectK
		if k <= 0 {
			k = 5
		}
		cdSel, cdRes, cdSt, err := lasso.SelectK(p, k, 1500, lasso.SolverCD)
		if err != nil {
			t.Fatalf("%s: cd: %v", sc.Name(), err)
		}
		istaSel, istaRes, istaSt, err := lasso.SelectK(p, k, 1500, lasso.SolverISTA)
		if err != nil {
			t.Fatalf("%s: ista: %v", sc.Name(), err)
		}
		if !reflect.DeepEqual(cdSel, istaSel) {
			t.Fatalf("%s: selections differ: cd %v ista %v", sc.Name(), cdSel, istaSel)
		}
		if cdSt != istaSt {
			t.Fatalf("%s: path stats differ: cd %+v ista %+v", sc.Name(), cdSt, istaSt)
		}
		if math.Float64bits(cdRes.Lambda) != math.Float64bits(istaRes.Lambda) ||
			math.Float64bits(cdRes.Intercept) != math.Float64bits(istaRes.Intercept) ||
			cdRes.Iters != istaRes.Iters {
			t.Fatalf("%s: fits differ: cd %+v ista %+v", sc.Name(), cdRes, istaRes)
		}
		for j := range cdRes.Weights {
			if math.Float64bits(cdRes.Weights[j]) != math.Float64bits(istaRes.Weights[j]) {
				t.Fatalf("%s: weight %d differs: cd %v ista %v",
					sc.Name(), j, cdRes.Weights[j], istaRes.Weights[j])
			}
		}
	}
}
