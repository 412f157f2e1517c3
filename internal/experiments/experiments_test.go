package experiments

import (
	"context"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
)

// testSession keeps CI runtimes modest while retaining the shape of the
// paper's experiments.
func testSession(opts ...Option) *Session {
	return NewSession(corpus.Config{AuxModules: 40, Seed: 2},
		append([]Option{WithEnsembleSize(30), WithExpSize(8)}, opts...)...)
}

// testRun runs one scenario on a fresh testSession.
func testRun(sc Scenario, opts ...Option) (*Outcome, error) {
	return testSession(opts...).Run(context.Background(), sc)
}

func TestWSUBBUGPipeline(t *testing.T) {
	out, err := testRun(WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate < 0.8 {
		t.Fatalf("WSUBBUG failure rate = %v", out.FailureRate)
	}
	// §6.1: wsub dominates the median-distance ranking by a wide
	// margin.
	if out.MedianRanking[0].Name != "WSUB" {
		t.Fatalf("top ranked variable = %s", out.MedianRanking[0].Name)
	}
	if len(out.MedianRanking) > 1 && out.MedianRanking[1].Distance > 0 {
		ratio := out.MedianRanking[0].Distance / out.MedianRanking[1].Distance
		if ratio < 1000 {
			t.Fatalf("wsub distance ratio = %v; want > 1000 (paper §6.1)", ratio)
		}
	}
	// The induced subgraph is tiny and contains the bug.
	if out.SliceNodes > 25 {
		t.Fatalf("WSUBBUG slice = %d nodes; want tiny", out.SliceNodes)
	}
	if !out.BugInSlice {
		t.Fatal("bug not contained in slice")
	}
	if !out.BugLocated {
		t.Fatal("refinement failed to locate bug")
	}
}

func TestGOFFGRATCHPipeline(t *testing.T) {
	out, err := testRun(GOFFGRATCH)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate < 0.8 {
		t.Fatalf("failure rate = %v", out.FailureRate)
	}
	if out.SliceNodes < 30 {
		t.Fatalf("GOFFGRATCH slice suspiciously small: %d", out.SliceNodes)
	}
	if !out.BugInSlice {
		t.Fatalf("goffgratch es not in slice (selected %v -> %v)",
			out.SelectedOutputs, out.Internals)
	}
	if !out.BugLocated {
		t.Fatalf("refinement lost the bug: %+v", out.Refine.Iterations)
	}
	// Cloud/snow variables should dominate the selection (Table 2).
	cloudy := 0
	for _, v := range out.SelectedOutputs {
		switch v {
		case "CLOUD", "CLDLOW", "CLDMED", "CLDHGH", "CLDTOT", "AQSNOW",
			"ANSNOW", "FREQS", "PRECSL", "CCN3":
			cloudy++
		}
	}
	if cloudy == 0 {
		t.Fatalf("no cloud/snow variables selected: %v", out.SelectedOutputs)
	}
}

func TestRANDMTPipeline(t *testing.T) {
	out, err := testRun(RANDMT)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate < 0.8 {
		t.Fatalf("failure rate = %v", out.FailureRate)
	}
	if len(out.BugNodes) == 0 {
		t.Fatal("no PRNG-defined bug nodes identified")
	}
	if !out.BugLocated && !out.BugInSlice {
		t.Fatalf("RAND-MT sources entirely missed; selected %v", out.SelectedOutputs)
	}
}

func TestAVX2Pipeline(t *testing.T) {
	out, err := testRun(AVX2)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate < 0.8 {
		t.Fatalf("failure rate = %v", out.FailureRate)
	}
	if len(out.KGenFlagged) < 5 {
		t.Fatalf("KGen flagged only %v", out.KGenFlagged)
	}
	if len(out.BugNodes) == 0 {
		t.Fatal("no KGen-flagged nodes in graph")
	}
	if !out.BugInSlice {
		t.Fatal("no flagged variable in slice")
	}
	if !out.BugLocated {
		t.Fatal("refinement failed to reach flagged variables")
	}
}

func TestDYN3BUGPipeline(t *testing.T) {
	out, err := testRun(DYN3BUG)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate < 0.8 {
		t.Fatalf("failure rate = %v", out.FailureRate)
	}
	if !out.BugInSlice || !out.BugLocated {
		t.Fatalf("dyn3 bug missed: inSlice=%v located=%v selected=%v",
			out.BugInSlice, out.BugLocated, out.SelectedOutputs)
	}
}

func TestRANDOMBUGPipeline(t *testing.T) {
	out, err := testRun(RANDOMBUG)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate < 0.8 {
		t.Fatalf("failure rate = %v", out.FailureRate)
	}
	if !out.BugInSlice || !out.BugLocated {
		t.Fatalf("randombug missed: inSlice=%v located=%v selected=%v",
			out.BugInSlice, out.BugLocated, out.SelectedOutputs)
	}
}

func TestCoverageReportedInOutcome(t *testing.T) {
	out, err := testRun(WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}
	if out.Coverage.ModulesBefore == 0 || out.Coverage.ModuleReductionPct() <= 0 {
		t.Fatalf("coverage report empty: %+v", out.Coverage)
	}
	if out.GraphNodes == 0 || out.SliceNodes == 0 {
		t.Fatalf("graph sizes missing: %+v", out)
	}
}

func TestReachabilitySamplerVariant(t *testing.T) {
	out, err := testRun(GOFFGRATCH, WithSampler(ReachSampling()))
	if err != nil {
		t.Fatal(err)
	}
	if !out.BugLocated {
		t.Fatal("reachability-sampled refinement lost the bug")
	}
}
