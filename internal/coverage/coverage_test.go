package coverage

import (
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fortran"
	"github.com/climate-rca/rca/internal/model"
	"github.com/climate-rca/rca/internal/rng"
)

func TestTraceRecordAndQuery(t *testing.T) {
	tr := NewTrace()
	if tr.ModuleExecuted("m") {
		t.Fatal("empty trace reports execution")
	}
	tr.Record("m", "s")
	if !tr.Executed("m", "s") || !tr.ModuleExecuted("m") {
		t.Fatal("record not visible")
	}
	if tr.Executed("m", "other") {
		t.Fatal("phantom subprogram")
	}
	if mods := tr.Modules(); len(mods) != 1 || mods[0] != "m" {
		t.Fatalf("modules = %v", mods)
	}
}

func TestFilterRemovesUnexecuted(t *testing.T) {
	mods, err := fortran.ParseFile(`
module live
  real :: x
contains
  subroutine used()
    x = 1.0
  end subroutine
  subroutine unused()
    x = 2.0
  end subroutine
end module

module dead
  real :: y
contains
  subroutine never()
    y = 1.0
  end subroutine
end module

module declsonly
  real, parameter :: k = 2.0
end module
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	tr.Record("live", "used")
	out, rep := Filter(mods, tr)
	byName := map[string]*fortran.Module{}
	for _, m := range out {
		byName[m.Name] = m
	}
	if byName["dead"] != nil {
		t.Fatal("dead module survived")
	}
	if byName["declsonly"] == nil {
		t.Fatal("declaration-only module removed")
	}
	live := byName["live"]
	if live == nil || len(live.Subprograms) != 1 || live.Subprograms[0].Name != "used" {
		t.Fatalf("live module filtered wrong: %+v", live)
	}
	if rep.ModulesBefore != 3 || rep.ModulesAfter != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.SubprogramsBefore != 3 || rep.SubprogramsAfter != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.SubprogramReductionPct() < 60 {
		t.Fatalf("subprogram reduction = %v", rep.SubprogramReductionPct())
	}
}

// TestCorpusCoverageReduction runs the real model for two steps (as
// the paper does) and checks the filter removes a substantial share of
// modules and subprograms.
func TestCorpusCoverageReduction(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 3})
	r, err := model.NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	if _, err := r.Run(model.RunConfig{StopAfter: 2, Trace: tr.Record}); err != nil {
		t.Fatal(err)
	}
	filtered, rep := Filter(r.Modules, tr)
	if rep.ModuleReductionPct() < 10 {
		t.Fatalf("module reduction only %.1f%%", rep.ModuleReductionPct())
	}
	if rep.SubprogramReductionPct() < 10 {
		t.Fatalf("subprogram reduction only %.1f%%", rep.SubprogramReductionPct())
	}
	// Filtered corpus must still contain the core path.
	names := map[string]bool{}
	for _, m := range filtered {
		names[m.Name] = true
	}
	for _, want := range []string{"micro_mg", "dyn3", "cldfrc", "cam_driver"} {
		if !names[want] {
			t.Fatalf("core module %s filtered away", want)
		}
	}
	for _, m := range filtered {
		if len(m.Name) >= 8 && m.Name[:8] == "aux_dead" {
			t.Fatalf("dead module %s survived", m.Name)
		}
	}
}

// TestTraceKeyProperties pins the trace key's contract: it names the
// executed set, not the recording, and no two distinct sets share it.
func TestTraceKeyProperties(t *testing.T) {
	type pair struct{ m, s string }
	keyOf := func(ps ...pair) string {
		tr := NewTrace()
		for _, p := range ps {
			tr.Record(p.m, p.s)
		}
		return tr.Key()
	}
	base := []pair{{"phys", "run"}, {"phys", "tend"}, {"dyn", "step"}, {"aux_001", "fgain"}}
	want := keyOf(base...)
	if len(want) != 64 {
		t.Fatalf("key %q is not a hex SHA-256", want)
	}

	// Recording order and duplicate records do not matter.
	r := rng.NewLCG(7)
	for i := 0; i < 50; i++ {
		ps := append([]pair(nil), base...)
		for j := 1 + r.Intn(6); j > 0; j-- {
			ps = append(ps, base[r.Intn(len(base))])
		}
		for j := len(ps) - 1; j > 0; j-- {
			k := r.Intn(j + 1)
			ps[j], ps[k] = ps[k], ps[j]
		}
		if got := keyOf(ps...); got != want {
			t.Fatalf("order/duplicates %v changed the key", ps)
		}
	}

	// Module/subprogram boundaries are unambiguous.
	distinct := [][]pair{
		{{"ab", "c"}},
		{{"a", "bc"}},
		{{"a", "b"}, {"a", "c"}},
		{{"a", "b"}, {"c", "b"}},
		{{"a", "bc"}, {"d", "e"}},
		{{"a", "b"}, {"cd", "e"}},
		{},
	}
	seen := map[string]int{}
	for i, ps := range distinct {
		k := keyOf(ps...)
		if j, dup := seen[k]; dup {
			t.Fatalf("sets %v and %v share key %s", distinct[j], ps, k)
		}
		seen[k] = i
	}

	// Any added or removed pair changes the key.
	for i := range base {
		rest := append(append([]pair(nil), base[:i]...), base[i+1:]...)
		if keyOf(rest...) == want {
			t.Fatalf("removing %v left the key unchanged", base[i])
		}
	}
	for _, extra := range []pair{{"phys", "init"}, {"dyn", "run"}, {"new", "run"}, {"aux_001", "fgain2"}} {
		if keyOf(append(append([]pair(nil), base...), extra)...) == want {
			t.Fatalf("adding %v left the key unchanged", extra)
		}
	}
}
