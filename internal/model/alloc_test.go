//go:build !race

package model

import (
	"runtime"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
)

// TestRunBatchMeansWarmAllocation bounds the bytes a warm experimental
// set allocates through RunBatchMeans on the bench corpus. A released
// BatchVM returns to its program's shape with its register files and
// frames, and the next batch of the same width resets it in place, so a
// warm batch allocates its outputs, capture values and per-lane RNGs
// only. Two sets are measured, each with its bound halfway between the
// value when every batch built its own VM and the value with reuse:
//
//   - eight members in one 8-lane batch: 2,005-2,129 KB per set
//     without reuse, 46 KB with it;
//   - ten members, the default set size, cut into an 8-lane and a
//     2-lane batch: 2,669-2,781 KB per set without reuse, 2,554 KB when
//     the shape kept one pool for every width (each width's VM evicted
//     the other's), 117-367 KB (median 308 KB over 12 runs) with one
//     pool per width. The steady state is 58 KB; a window also pays
//     for the pooled VMs a GC drops, or that sit in another P's private
//     slot after the test goroutine moves.
//
// The race detector drops pooled VMs at random, so the test runs
// without it.
func TestRunBatchMeansWarmAllocation(t *testing.T) {
	r, err := NewRunner(corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		batches [][]int
		bound   uint64
	}{
		{"eight members", [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}, 1067 << 10},
		{"ten members", [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9}}, 1504 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set := func() {
				for _, members := range tc.batches {
					if _, err := r.RunBatchMeans(RunConfig{}, members); err != nil {
						t.Fatal(err)
					}
				}
			}
			set()
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				set()
			}
			runtime.ReadMemStats(&after)
			per := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("warm set of %s: %d KB allocated", tc.name, per>>10)
			if per > tc.bound {
				t.Errorf("warm set of %s allocated %d KB, want at most %d KB", tc.name, per>>10, tc.bound>>10)
			}
		})
	}
}
