package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Overlapping children cover [10,60]; the third lies past the
		// parent's end and counts only for [80,100].
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120},
		// A grandchild is its parent's business, not the root's.
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 50 - 20, 2: 30 - 5, 3: 30, 4: 40, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestAttributeSplitsConcurrentWork(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "scenario", Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "select", Start: 0, End: 60},
		{ID: 4, Parent: 1, Name: "scenario", Start: 20, End: 80},
		{ID: 5, Parent: 4, Name: "refine", Start: 20, End: 80},
	}
	got := attribute(spans)
	// select runs alone for 20 and shares 40 with refine. From 60 the
	// first scenario runs its own code: sharing 20 with refine, then
	// alone for the last 20.
	want := map[string]int64{"select": 20 + 40/2, "refine": 40/2 + 20/2, "scenario": 20/2 + 20}
	var sum int64
	for name, ns := range got {
		sum += ns
		if ns != want[name] {
			t.Errorf("%s attributed %d, want %d", name, ns, want[name])
		}
	}
	if sum != 100 {
		t.Errorf("attributions sum to %d, want the op's wall time 100", sum)
	}
}
