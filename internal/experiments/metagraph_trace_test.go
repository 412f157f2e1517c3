package experiments

import (
	"context"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/coverage"
)

// TestTracesOfOneShapeNeverShare drives the compile path with two
// traces of one program shape that executed different sets: each gets
// its own metagraph, and only a trace naming the same set shares.
func TestTracesOfOneShapeNeverShare(t *testing.T) {
	ctx := context.Background()
	s := NewSession(corpus.Config{AuxModules: 8, Seed: 9400}, WithEnsembleSize(4), WithExpSize(2))
	b, err := s.Builds(ctx, NewScenario("CLEAN", ScenarioOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	full, err := traceStage(b)
	if err != nil {
		t.Fatal(err)
	}
	// less drops the last executed subprogram; same re-records the
	// full set in reverse order.
	less, same := coverage.NewTrace(), coverage.NewTrace()
	var pairs [][2]string
	for _, m := range b.Exper.Modules {
		for _, sub := range m.Subprograms {
			if full.Executed(m.Name, sub.Name) {
				pairs = append(pairs, [2]string{m.Name, sub.Name})
			}
		}
	}
	for i, p := range pairs {
		if i < len(pairs)-1 {
			less.Record(p[0], p[1])
		}
		q := pairs[len(pairs)-1-i]
		same.Record(q[0], q[1])
	}

	a, err := s.compiledTraced(ctx, "build-a", b.Exper, full)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.compiledTraced(ctx, "build-b", b.Exper, less)
	if err != nil {
		t.Fatal(err)
	}
	if a == c || a.Coverage == c.Coverage {
		t.Fatalf("traces of one shape with different executed sets shared a metagraph (coverage %+v vs %+v)",
			a.Coverage, c.Coverage)
	}
	if s.MetagraphShares() != 0 {
		t.Fatalf("MetagraphShares = %d after two distinct traces; want 0", s.MetagraphShares())
	}
	d, err := s.compiledTraced(ctx, "build-c", b.Exper, same)
	if err != nil {
		t.Fatal(err)
	}
	if d != a || s.MetagraphShares() != 1 {
		t.Fatalf("a trace of the same set did not share (same pointer %v, shares %d)", d == a, s.MetagraphShares())
	}
}
