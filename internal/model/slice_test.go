package model

import (
	"math"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
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
