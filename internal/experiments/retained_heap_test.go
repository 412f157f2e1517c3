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

// heapRuns gives every run of TestParamBuildsRetainedHeap values no
// earlier run parsed: parsed texts are cached process-wide, so a
// repeated run (-count N) would otherwise find its builds already
// parsed.
var heapRuns atomic.Int64

// TestParamBuildsRetainedHeap bounds what one fresh `param:` build
// keeps alive in a long-lived session: 24 builds of never-seen values
// per parameter go through one Session.Builds on the bench corpus, and
// the heap in use after GC may grow by at most the given bytes per
// build. Texts and parsed subprograms equal to the clean tree's are
// shared process-wide, so a build keeps only its corpus manifest, its
// changed file texts and their module headers; an `auxfmagain` build
// changes all 40 aux_phys files, the other two one core file each.
func TestParamBuildsRetainedHeap(t *testing.T) {
	const builds = 24
	run := int(heapRuns.Add(1) - 1)
	ctx := context.Background()
	s := experiments.NewSession(corpus.Config{AuxModules: 40, Seed: 2})
	if _, err := s.Builds(ctx, experiments.NewScenario("CLEAN", experiments.ScenarioOptions{})); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, tc := range []struct {
		param string
		def   float64
		max   int64
	}{
		{"auxfmagain", 0.01, 600 << 10},
		{"turbcoef", 0.01, 64 << 10},
		{"fmagain", 3000, 64 << 10},
	} {
		before := heap()
		for k := 0; k < builds; k++ {
			v := tc.def * (1.25 + float64(run*builds+k)/1000)
			sc := experiments.NewScenario(fmt.Sprintf("%s%d", tc.param, k), experiments.ScenarioOptions{},
				experiments.PerturbParameter(tc.param, v))
			if _, err := s.Builds(ctx, sc); err != nil {
				t.Fatalf("%s=%g: %v", tc.param, v, err)
			}
		}
		per := (heap() - before) / builds
		t.Logf("%s: %d KB retained per build", tc.param, per>>10)
		if per > tc.max {
			t.Errorf("%s: %d KB retained per fresh build, want at most %d KB", tc.param, per>>10, tc.max>>10)
		}
	}
	runtime.KeepAlive(s)
}
