package model

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/climate-rca/rca/internal/bytecode"
	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/interp"
	"github.com/climate-rca/rca/internal/rng"
)

// TestRunBatchMeansSliceMatchesFull pins the output slice on the
// benchmark corpus (AuxModules 40, Seed 2), with FMA off and on: an
// 8-member RunBatchMeans, which takes no snapshots and so runs the
// sliced stream, returns the output means a SnapshotAll run of the full
// stream returns, bit for bit.
func TestRunBatchMeansSliceMatchesFull(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 40, Seed: 2})
	members := []int{0, 1, 2, 3, 4, 5, 1000, 1001}
	for _, fma := range []func(string) bool{nil, func(string) bool { return true }} {
		sliced, err := r.RunBatchMeans(RunConfig{FMA: fma}, members)
		if err != nil {
			t.Fatal(err)
		}
		full, err := r.RunBatchMeans(RunConfig{FMA: fma, SnapshotAll: true}, members)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range members {
			if len(sliced[i]) == 0 || len(sliced[i]) != len(full[i]) {
				t.Fatalf("member %d: %d sliced outputs, %d full", m, len(sliced[i]), len(full[i]))
			}
			for k, v := range full[i] {
				if sv, ok := sliced[i][k]; !ok || math.Float64bits(sv) != math.Float64bits(v) {
					t.Fatalf("member %d output %s: sliced %v, full %v", m, k, sv, v)
				}
			}
		}
	}
}

// TestRunBatchMeansUnheldArrayMatchesFull pins perturb on a VM that
// runs the output slice and does not hold an array perturb writes: on
// the benchmark corpus with every read of wpert removed, the sliced VM
// holds the state array and refuses wpert, perturb keeps its draws and
// writes wpert's to scratch, and the perturbed 8-member means are bit
// for bit those of a SnapshotAll run of the full stream.
func TestRunBatchMeansUnheldArrayMatchesFull(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2})
	n := 0
	for i, f := range c.Files {
		if f.Name != "microp_aero.F90" {
			continue
		}
		src := strings.Replace(f.Source, " + wpert + 0.35", " + 0.35", 1)
		src = strings.Replace(src, " + wpert * 5.0", "", 1)
		n = strings.Count(src, "wpert")
		c.Files[i].Source = src
	}
	if n != 2 { // the declaration and the write aero_init makes
		t.Fatalf("microp_aero names wpert %d times after the edit, want 2", n)
	}
	r, err := NewRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := r.Program().NewBatchVM(interp.Config{}, []rng.Source{rng.NewKISS(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.LaneArray(0, "physics_types", statePath...); err != nil {
		t.Fatalf("sliced VM refuses the state array: %v", err)
	}
	if _, err := vm.LaneArray(0, "microp_aero", wpertPath...); !errors.Is(err, bytecode.ErrNotHeld) {
		t.Fatalf("sliced VM hands out wpert, which no sliced instruction reads: %v", err)
	}
	vm.Release()
	members := []int{0, 1, 2, 3, 4, 5, 1000, 1001}
	sliced, err := r.RunBatchMeans(RunConfig{}, members)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.RunBatchMeans(RunConfig{SnapshotAll: true}, members)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range members {
		if len(sliced[i]) == 0 || len(sliced[i]) != len(full[i]) {
			t.Fatalf("member %d: %d sliced outputs, %d full", m, len(sliced[i]), len(full[i]))
		}
		for k, v := range full[i] {
			if sv, ok := sliced[i][k]; !ok || math.Float64bits(sv) != math.Float64bits(v) {
				t.Fatalf("member %d output %s: sliced %v, full %v", m, k, sv, v)
			}
		}
	}
}
