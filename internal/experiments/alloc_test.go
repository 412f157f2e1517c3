//go:build !race

package experiments_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/experiments"
)

// allocRuns gives every run of TestScaleBuildAllocation factors no
// earlier run parsed, as heapRuns does for the retained-heap test.
var allocRuns atomic.Int64

// TestScaleBuildAllocation bounds the bytes Session.Builds allocates
// for a fresh `scale:` scenario once the control build exists. The
// scenario's corpus is the control corpus with one patch applied, so
// the build copies the file list, rewrites and parses one file and
// assembles a runner; it does not generate the corpus again. Measured
// on the bench corpus: 954 KB per build when every patched build
// regenerated its corpus, 115 KB with the patch applied to the control
// corpus; the bound sits halfway. The test runs without the race
// detector, whose instrumentation allocates too.
func TestScaleBuildAllocation(t *testing.T) {
	const builds = 8
	const bound = 535 << 10
	run := int(allocRuns.Add(1) - 1)
	ctx := context.Background()
	s := experiments.NewSession(corpus.Config{AuxModules: 40, Seed: 2})
	scale := func(k int) experiments.Scenario {
		return experiments.NewScenario(fmt.Sprintf("SCALE%d", k), experiments.ScenarioOptions{},
			experiments.ScaleAssignment{Module: "micro_mg", Subprogram: "micro_mg_tend", Var: "pre",
				Factor: 1 + float64(run*(builds+1)+k+1)*1e-5})
	}
	// The control build, and one scale build to warm what every later
	// one shares.
	if _, err := s.Builds(ctx, scale(0)); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 1; k <= builds; k++ {
		if _, err := s.Builds(ctx, scale(k)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / builds
	t.Logf("fresh scale: build: %d KB allocated", per>>10)
	if per > bound {
		t.Errorf("fresh scale: build allocated %d KB, want at most %d KB", per>>10, bound>>10)
	}
	runtime.KeepAlive(s)
}
