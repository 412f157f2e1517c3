package metagraph

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/fortran"
)

// TestCodecRoundTripMatchesBuild pins that a built metagraph keeps
// nothing Encode drops: Decode(Encode(mg)) answers ModuleNames, Stats
// and every exported lookup exactly as the built one does, and
// re-encodes to the same bytes.
func TestCodecRoundTripMatchesBuild(t *testing.T) {
	c := corpus.Generate(corpus.Config{AuxModules: 12, Seed: 4})
	var mods []*fortran.Module
	for _, f := range c.Files {
		ms, err := fortran.ParseFile(f.Source)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, ms...)
	}
	built, err := Build(mods)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := built.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("encode(decode(encode(mg))) differs from encode(mg)")
	}

	if got, want := dec.ModuleNames(), built.ModuleNames(); !reflect.DeepEqual(got, want) || len(want) != len(mods) {
		t.Fatalf("ModuleNames: decoded %v, built %v (%d modules)", got, want, len(mods))
	}
	if got, want := dec.Stats(), built.Stats(); got != want {
		t.Fatalf("Stats: decoded %+v, built %+v", got, want)
	}
	bp, bn := built.ModulePartition()
	dp, dn := dec.ModulePartition()
	if !reflect.DeepEqual(bp, dp) || !reflect.DeepEqual(bn, dn) {
		t.Fatal("ModulePartition differs")
	}
	if !reflect.DeepEqual(dec.Nodes, built.Nodes) || !reflect.DeepEqual(dec.OutputMap, built.OutputMap) || dec.Unparsed != built.Unparsed {
		t.Fatal("nodes, output map or unparsed count differ")
	}
	// Decode replays the edges source by source, so out-lists come back
	// in insertion order and in-lists in source-id order.
	sorted := func(ns []int32) []int32 {
		out := append([]int32(nil), ns...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for u := 0; u < built.G.NumNodes(); u++ {
		if !reflect.DeepEqual(dec.G.Out(u), built.G.Out(u)) || !reflect.DeepEqual(dec.G.In(u), sorted(built.G.In(u))) {
			t.Fatalf("adjacency of node %d differs", u)
		}
	}
	for i, n := range built.Nodes {
		if id, ok := dec.NodeID(n.Key); !ok || id != i {
			t.Fatalf("NodeID(%q) = %d, %v; want %d", n.Key, id, ok, i)
		}
		if got, want := dec.ByCanonical(n.Canonical), built.ByCanonical(n.Canonical); !reflect.DeepEqual(got, want) {
			t.Fatalf("ByCanonical(%q): decoded %v, built %v", n.Canonical, got, want)
		}
		if got, want := dec.ByDisplay(n.Display), built.ByDisplay(n.Display); !reflect.DeepEqual(got, want) {
			t.Fatalf("ByDisplay(%q): decoded %v, built %v", n.Display, got, want)
		}
	}
	if _, ok := dec.NodeID("nosuch::::x"); ok {
		t.Fatal("decoded metagraph resolves an absent key")
	}
	for _, m := range bn {
		keep := func(mod string) bool { return mod == m }
		if got, want := dec.NodesInModules(keep), built.NodesInModules(keep); !reflect.DeepEqual(got, want) {
			t.Fatalf("NodesInModules(%s) differs", m)
		}
	}
}
