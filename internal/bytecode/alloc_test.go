//go:build !race

package bytecode

import (
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
)

// TestRebindParamVariantAllocs bounds what a rebind of the bench
// corpus's clean program to a `param:` variant allocates. Rebind reads
// each declared name's cell from the program's cell table and sizes
// the new initializer tables from the old, so it allocates those
// tables and the program copy: 2 allocations. Replaying phase 3's
// allocation through a per-declaration map, as Rebind did before the
// table, cost 17. The test runs without the race detector, whose
// instrumentation allocates too.
func TestRebindParamVariantAllocs(t *testing.T) {
	base := corpus.Config{AuxModules: 40, Seed: 2}
	clean, err := corpus.Generate(base).Parse()
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.TurbCoef = 0.0131
	mods, err := corpus.Generate(cfg).Parse()
	if err != nil {
		t.Fatal(err)
	}
	skel := Compile(clean)
	if skel.Rebind(mods) == skel {
		t.Fatal("variant rebinds to the skeleton; the test perturbs nothing")
	}
	const bound = 4
	allocs := testing.AllocsPerRun(100, func() { skel.Rebind(mods) })
	t.Logf("Rebind to a param variant: %.0f allocations", allocs)
	if allocs > bound {
		t.Errorf("Rebind to a param variant allocates %.0f times, want at most %d", allocs, bound)
	}
}
