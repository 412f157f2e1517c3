package experiments

import (
	"context"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
)

// TestPaperScalePipeline runs one full experiment on the 561-module
// corpus — the scale of the paper's quotient graph. Skipped under
// -short; the default run keeps it because it is the headline
// demonstration that the pipeline works beyond toy sizes.
func TestPaperScalePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale pipeline is slow")
	}
	out, err := NewSession(corpus.PaperScale(), WithEnsembleSize(25), WithExpSize(6)).
		Run(context.Background(), GOFFGRATCH)
	if err != nil {
		t.Fatal(err)
	}
	if out.FailureRate < 0.8 {
		t.Fatalf("failure rate = %v", out.FailureRate)
	}
	if out.GraphNodes < 10000 {
		t.Fatalf("graph suspiciously small: %d", out.GraphNodes)
	}
	// The slice must shrink the search space by at least an order of
	// magnitude (the paper's 660k LoC → 4k-node subgraph story).
	if out.SliceNodes*10 > out.GraphNodes {
		t.Fatalf("slice %d not ≪ graph %d", out.SliceNodes, out.GraphNodes)
	}
	if !out.BugInSlice || !out.BugLocated {
		t.Fatalf("paper-scale bug missed: inSlice=%v located=%v",
			out.BugInSlice, out.BugLocated)
	}
	t.Logf("paper scale: graph %dn/%de, slice %dn/%de, iterations %d",
		out.GraphNodes, out.GraphEdges, out.SliceNodes, out.SliceEdges,
		len(out.Refine.Iterations))
}
