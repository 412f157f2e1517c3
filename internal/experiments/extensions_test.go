package experiments

import (
	"strings"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/model"
)

func TestMagnitudeRefinementVariant(t *testing.T) {
	out, err := testRun(DYN3BUG, WithSampler(GradedSampling()))
	if err != nil {
		t.Fatal(err)
	}
	if !out.BugLocated {
		t.Fatal("magnitude refinement lost the bug")
	}
	// The graded contraction should shrink past the plain fixed point:
	// the final subgraph is no larger than the plain run's.
	plain, err := testRun(DYN3BUG)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Refine.Final) > len(plain.Refine.Final) {
		t.Fatalf("graded final %d > plain final %d",
			len(out.Refine.Final), len(plain.Refine.Final))
	}
}

func TestWriteSliceDot(t *testing.T) {
	out, err := testRun(WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := out.WriteSliceDot(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "wsub__microp_aero") {
		t.Fatalf("dot output:\n%s", dot)
	}
	if !strings.Contains(dot, "color=red") {
		t.Fatal("bug highlight missing")
	}
}

// TestVariableContributionsOnModel exercises the §6.4-motivation
// measurement on real model output: the WSUB bug's contribution
// dominates.
func TestVariableContributionsOnModel(t *testing.T) {
	ctlCorpus := corpus.Generate(corpus.Config{AuxModules: 25, Seed: 2})
	control, err := model.NewRunner(ctlCorpus)
	if err != nil {
		t.Fatal(err)
	}
	bugCorpus, err := corpus.Apply(ctlCorpus, corpus.WsubPatch)
	if err != nil {
		t.Fatal(err)
	}
	bugged, err := model.NewRunner(bugCorpus)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := control.RunBatchMeans(model.RunConfig{}, memberRange(0, 30))
	if err != nil {
		t.Fatal(err)
	}
	test, err := ect.NewTest(ens, ect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := bugged.RunBatchMeans(model.RunConfig{}, memberRange(1000, 6))
	if err != nil {
		t.Fatal(err)
	}
	contrib := test.VariableContributions(runs)
	if len(contrib) == 0 {
		t.Fatal("no contributions (no failures?)")
	}
	if contrib[0].Variable != "WSUB" {
		t.Fatalf("top contributor = %+v", contrib[0])
	}
}

func TestFigure11OnSlice(t *testing.T) {
	out, err := testRun(GOFFGRATCH)
	if err != nil {
		t.Fatal(err)
	}
	curve := Figure11(out.Slice.Sub)
	if len(curve.Eigen) != out.SliceNodes {
		t.Fatalf("eigen curve length = %d", len(curve.Eigen))
	}
	// Rank curves are non-increasing.
	for i := 1; i < len(curve.Eigen); i++ {
		if curve.Eigen[i] > curve.Eigen[i-1]+1e-12 {
			t.Fatal("eigen curve not sorted")
		}
	}
	if curve.NBRanked > out.SliceNodes {
		t.Fatalf("NBRanked = %d of %d", curve.NBRanked, out.SliceNodes)
	}
}

func TestDegreeDistributionAndExponent(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2})
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	out, err := testRun(WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}
	_ = mods
	points := DegreeDistribution(out.Metagraph.G)
	if len(points) < 5 {
		t.Fatalf("too few degree classes: %v", points)
	}
	total := 0
	for _, p := range points {
		total += p.Count
	}
	if total != out.GraphNodes {
		t.Fatalf("histogram total %d != nodes %d", total, out.GraphNodes)
	}
	if exp := PowerLawExponent(points); exp <= 0 {
		t.Fatalf("exponent = %v", exp)
	}
	// Heavy tail: degree-1 nodes dominate.
	if points[0].Degree > 1 || points[0].Count < total/3 {
		low := 0
		for _, p := range points {
			if p.Degree <= 2 {
				low += p.Count
			}
		}
		if low < total/3 {
			t.Fatalf("no heavy low-degree tail: %v", points[:3])
		}
	}
}

func TestCommunityInCentralityNoBugs(t *testing.T) {
	out, err := testRun(GOFFGRATCH)
	if err != nil {
		t.Fatal(err)
	}
	if got := CommunityInCentrality(out.Metagraph, out.Refine.Iterations[0].Communities, nil, 5); got != nil {
		t.Fatalf("expected nil for empty bug set, got %v", got)
	}
}

func TestAVX2FullSliceLarger(t *testing.T) {
	restricted, err := testRun(AVX2)
	if err != nil {
		t.Fatal(err)
	}
	full, err := testRun(AVX2Full)
	if err != nil {
		t.Fatal(err)
	}
	if full.SliceNodes < restricted.SliceNodes {
		t.Fatalf("unrestricted slice smaller: %d < %d", full.SliceNodes, restricted.SliceNodes)
	}
	if !full.BugLocated {
		t.Fatal("unrestricted variant lost the bug")
	}
}

// memberRange returns the member ids offset..offset+n-1.
func memberRange(offset, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = offset + i
	}
	return ids
}
