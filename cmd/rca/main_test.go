package main

import (
	"reflect"
	"testing"
)

// TestUnforwardable pins the -server flag check: every in-process-only
// flag the user set is reported, in a fixed order, and the forwarded
// flags (sizing, scenario selection, search) pass.
func TestUnforwardable(t *testing.T) {
	for _, tc := range []struct {
		set  []string
		want []string
	}{
		{nil, nil},
		{[]string{"server", "experiment", "aux", "seed", "ensemble", "runs", "topk", "table1"}, nil},
		{[]string{"server", "dot"}, []string{"dot"}},
		{[]string{"store", "server", "sampler", "parallel", "magnitudes", "dot"},
			[]string{"dot", "sampler", "magnitudes", "parallel", "store"}},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		if got := unforwardable(set); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("unforwardable(%v) = %v, want %v", tc.set, got, tc.want)
		}
	}
}

// TestInert pins the refusal of flags that would do nothing: -store
// outside -search, and -faults without -store.
func TestInert(t *testing.T) {
	for _, tc := range []struct {
		set         []string
		name, needs string
	}{
		{nil, "", ""},
		{[]string{"experiment", "aux", "parallel"}, "", ""},
		{[]string{"search", "pool", "store"}, "", ""},
		{[]string{"search", "pool", "store", "faults", "fault-seed"}, "", ""},
		{[]string{"experiment", "store"}, "store", "search"},
		{[]string{"all", "store", "faults"}, "store", "search"},
		{[]string{"search", "pool", "faults"}, "faults", "store"},
		{[]string{"experiment", "faults"}, "faults", "store"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		name, needs, ok := inert(set)
		if name != tc.name || needs != tc.needs || ok != (tc.name != "") {
			t.Errorf("inert(%v) = %q, %q, %v; want %q, %q", tc.set, name, needs, ok, tc.name, tc.needs)
		}
	}
}
