package experiments

import (
	"context"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/metagraph"
)

func TestModuleCentralityRanking(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 30, Seed: 2})
	mods, err := c.Parse()
	if err != nil {
		t.Fatal(err)
	}
	mg, err := metagraph.Build(mods)
	if err != nil {
		t.Fatal(err)
	}
	ranked := ModuleCentralityRanking(mg)
	if len(ranked) == 0 {
		t.Fatal("empty ranking")
	}
	pos := map[string]int{}
	for i, m := range ranked {
		pos[m] = i
	}
	// The state-bearing and microphysics modules must rank well above
	// the median: they are the information-flow hubs.
	mid := len(ranked) / 2
	for _, hub := range []string{"physics_types", "micro_mg"} {
		if pos[hub] > mid {
			t.Fatalf("%s ranked %d of %d; want hub position", hub, pos[hub], len(ranked))
		}
	}
}

// TestTable1Shape verifies the ordering of the paper's Table 1:
// enabled >= largest-K >= random-K >> central-K and disabled (both
// near the false-positive floor).
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 sweep is slow")
	}
	rows, err := testSession().Table1(context.Background(), Table1Setup{
		ExpSize:       8,
		TopK:          8,
		RandomSamples: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	enabled, largest, random, central, disabled :=
		rows[0].FailureRate, rows[1].FailureRate, rows[2].FailureRate,
		rows[3].FailureRate, rows[4].FailureRate
	t.Logf("enabled=%.2f largest=%.2f random=%.2f central=%.2f disabled=%.2f",
		enabled, largest, random, central, disabled)
	if enabled < 0.8 {
		t.Fatalf("all-enabled rate = %v; want high", enabled)
	}
	if central > 0.25 {
		t.Fatalf("central-disabled rate = %v; want near floor", central)
	}
	if disabled > 0.25 {
		t.Fatalf("all-disabled rate = %v; want near floor", disabled)
	}
	if largest < central || random < central {
		t.Fatalf("ordering violated: largest=%v random=%v central=%v",
			largest, random, central)
	}
	// Largest/random keep most of the failure signal (the paper's
	// 86%/83% vs 8%).
	if largest < 0.5 || random < 0.5 {
		t.Fatalf("largest=%v random=%v; want majority failures", largest, random)
	}
}
