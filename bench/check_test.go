package main

import (
	"context"
	"testing"
)

func TestVerifySamplesReferencesForUncoveredOps(t *testing.T) {
	recs := make([]opRecord, 20)
	for i := range recs {
		recs[i] = opRecord{Index: i, Digest: "good"}
	}
	recs[7].Err = "failed before the check"
	var calls []int
	h := &harness{
		refKey: func(i int) int { return i % 10 }, // ops i and i+10 share an input
		reference: func(_ context.Context, i int) (string, error) {
			calls = append(calls, i)
			if i%10 == 3 {
				return "other", nil
			}
			return "good", nil
		},
	}
	committed := map[int]string{0: "good", 1: "bad"}
	checked, err := verify(context.Background(), h, recs, committed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 || len(calls) > 5 {
		t.Fatalf("%d reference runs, want 1 to 5", len(calls))
	}
	keys := map[int]bool{0: true, 1: true}
	for _, i := range calls {
		if i%10 < 2 || i == 7 {
			t.Errorf("reference ran for op %d, whose input is covered or which failed", i)
		}
		keys[i%10] = true
	}
	want := 0
	for _, r := range recs {
		k := r.Index % 10
		mismatch := k == 1 || k == 3
		covered := keys[k] && r.Index != 7
		if covered {
			want++
		}
		if got := r.Err != ""; r.Index != 7 && got != (covered && mismatch) {
			t.Errorf("op %d: error %q, want failed=%v", r.Index, r.Err, covered && mismatch)
		}
	}
	if checked != want {
		t.Errorf("checked %d ops, want %d", checked, want)
	}
}
