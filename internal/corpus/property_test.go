package corpus

import (
	"testing"

	"github.com/climate-rca/rca/internal/metagraph"
)

// TestManySeedsParseAndCompile is the generator's robustness property:
// every seed must yield a corpus that parses completely and compiles
// into a metagraph with zero unparsed statements.
func TestManySeedsParseAndCompile(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		c := Generate(Config{AuxModules: 25, Seed: seed})
		mods, err := c.Parse()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mg, err := metagraph.Build(mods)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if mg.Unparsed != 0 {
			t.Fatalf("seed %d: %d unparsed statements", seed, mg.Unparsed)
		}
	}
}

// TestBugInjectionPreservesStructure: every catalog patch must parse
// and produce a graph with the same node count as the clean corpus
// (bugs are value changes, not structural ones — except RANDOMBUG's
// shift index, which is also value-level in the graph).
func TestBugInjectionPreservesStructure(t *testing.T) {
	c := Generate(Config{AuxModules: 25, Seed: 3})
	clean := graphNodes(t, c)
	for _, tc := range catalogPatches {
		patched, err := Apply(c, tc.patch)
		if err != nil {
			t.Fatal(err)
		}
		if got := graphNodes(t, patched); got != clean {
			t.Fatalf("%s changed node count: %d vs %d", tc.name, got, clean)
		}
	}
}

func nodeCount(t *testing.T, cfg Config) int {
	t.Helper()
	return graphNodes(t, Generate(cfg))
}

func graphNodes(t *testing.T, c *Corpus) int {
	t.Helper()
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	mg, err := metagraph.Build(mods)
	if err != nil {
		t.Fatal(err)
	}
	return mg.G.NumNodes()
}

// TestScaleGrowsGraph: more aux modules mean a larger digraph,
// approximately linearly.
func TestScaleGrowsGraph(t *testing.T) {
	small := nodeCount(t, Config{AuxModules: 20, Seed: 5})
	big := nodeCount(t, Config{AuxModules: 80, Seed: 5})
	if big < 2*small {
		t.Fatalf("graph did not scale: %d -> %d", small, big)
	}
}

// TestPaperScaleCorpus compiles the 561-module-scale corpus (gated
// behind -short for CI friendliness).
func TestPaperScaleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus is slow")
	}
	c := Generate(PaperScale())
	if got := len(c.Modules()); got < 550 {
		t.Fatalf("modules = %d; want ~561", got)
	}
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	mg, err := metagraph.Build(mods)
	if err != nil {
		t.Fatal(err)
	}
	st := mg.Stats()
	if st.Nodes < 5000 {
		t.Fatalf("paper-scale graph too small: %+v", st)
	}
	if st.Unparsed != 0 {
		t.Fatalf("unparsed: %d", st.Unparsed)
	}
	// The quotient graph should have one node per module, like the
	// paper's 561-node module digraph.
	part, names := mg.ModulePartition()
	q := mg.G.Quotient(part, len(names))
	if q.NumNodes() != len(c.Modules()) {
		t.Fatalf("quotient nodes = %d; modules = %d", q.NumNodes(), len(c.Modules()))
	}
}
