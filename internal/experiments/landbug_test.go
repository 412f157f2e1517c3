package experiments

import "testing"

func TestLANDBUGPipeline(t *testing.T) {
	out, err := testRun(LANDBUG)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate < 0.8 {
		t.Fatalf("LANDBUG failure rate = %v", out.FailureRate)
	}
	// SNOWHLND (or SOILW, fed by the same coefficient) must be
	// selected.
	hasLand := false
	for _, v := range out.SelectedOutputs {
		if v == "SNOWHLND" || v == "SOILW" {
			hasLand = true
		}
	}
	if !hasLand {
		t.Fatalf("land variables not selected: %v", out.SelectedOutputs)
	}
	if !out.BugInSlice {
		t.Fatal("land bug not in slice")
	}
	if !out.BugLocated {
		t.Fatalf("land bug not located: %+v", out.Refine.Iterations)
	}
}

func TestFirstStepSelection(t *testing.T) {
	// WSUBBUG's influence is so localized that the direct first-step
	// comparison is conclusive — the paper's preferred situation.
	out, err := testRun(WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}
	if out.FirstStep == nil {
		t.Fatal("first-step comparison missing")
	}
	if !out.FirstStep.Conclusive() {
		t.Fatalf("WSUBBUG first-step inconclusive: %d of %d differ",
			len(out.FirstStep.Differing), out.FirstStep.Total)
	}
	if out.FirstStep.Differing[0] != "WSUB" {
		t.Fatalf("first-step top = %v", out.FirstStep.Differing)
	}
	// GOFFGRATCH propagates everywhere by step 1 — inconclusive, the
	// distribution methods take over (the paper's common case).
	gg, err := testRun(GOFFGRATCH)
	if err != nil {
		t.Fatal(err)
	}
	if gg.FirstStep != nil && gg.FirstStep.Conclusive() {
		t.Fatalf("GOFFGRATCH first-step unexpectedly conclusive: %v",
			gg.FirstStep.Differing)
	}
}
