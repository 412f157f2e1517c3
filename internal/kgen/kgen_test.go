package kgen

import (
	"reflect"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/model"
)

func TestCompareKernelsFlagsAndRanks(t *testing.T) {
	a := map[string][]float64{
		"same":  {1, 2, 3},
		"small": {1, 2, 3},
		"big":   {1, 2, 3},
		"short": {1},
	}
	b := map[string][]float64{
		"same":  {1, 2, 3},
		"small": {1 + 1e-10, 2, 3},
		"big":   {2, 2, 3},
		"short": {1, 2}, // shape mismatch: skipped
	}
	got := CompareKernels(a, b, 1e-12)
	if len(got) != 2 {
		t.Fatalf("flagged = %+v", got)
	}
	if got[0].Variable != "big" || got[1].Variable != "small" {
		t.Fatalf("rank order = %+v", got)
	}
	if names := Names(got); !reflect.DeepEqual(names, []string{"big", "small"}) {
		t.Fatalf("names = %v", names)
	}
}

func TestCompareKernelsDefaultThreshold(t *testing.T) {
	a := map[string][]float64{"x": {1}, "y": {1}}
	b := map[string][]float64{"x": {1 + 1e-11}, "y": {1 + 1e-13}}
	got := CompareKernels(a, b, 0)
	if len(got) != 1 || got[0].Variable != "x" {
		t.Fatalf("default threshold: %v", got)
	}
}

func TestBuiltModules(t *testing.T) {
	uses := map[string][]string{
		"driver": {"a", "b"},
		"a":      {"c"},
		"orphan": {"c"},
	}
	got := BuiltModules("driver", uses)
	want := []string{"a", "b", "c", "driver"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("built = %v", got)
	}
}

// TestAVX2KernelFlagging reproduces the §6.4 KGen workflow: run the
// Morrison-Gettelman-style kernel with FMA off and on and flag
// variables whose normalized RMS values differ beyond 1e-12. The
// paper's headline variables must be among them.
func TestAVX2KernelFlagging(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 15, Seed: 2})
	r, err := model.NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	watch := "micro_mg::micro_mg_tend"
	off, err := r.Run(model.RunConfig{KernelWatch: watch})
	if err != nil {
		t.Fatal(err)
	}
	on, err := r.Run(model.RunConfig{KernelWatch: watch, FMA: func(string) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	flagged := CompareKernels(off.Kernel, on.Kernel, RMSThreshold)
	if len(flagged) < 5 {
		t.Fatalf("only %d variables flagged: %+v", len(flagged), flagged)
	}
	set := map[string]bool{}
	for _, f := range flagged {
		set[f.Variable] = true
	}
	for _, want := range []string{"nctend", "qvlat", "tlat", "nitend", "qsout"} {
		if !set[want] {
			t.Fatalf("paper variable %s not flagged (flagged: %v)", want, Names(flagged))
		}
	}
}
