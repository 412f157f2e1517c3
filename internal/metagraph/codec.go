package metagraph

import (
	"fmt"
	"sort"

	"github.com/climate-rca/rca/internal/binenc"
	"github.com/climate-rca/rca/internal/graph"
)

// mgCodecVersion is bumped on any change to the encoding below; the
// artifact store then treats older blobs as misses.
const mgCodecVersion uint32 = 1

// Encode serializes the metagraph to the deterministic artifact
// format: nodes, edges, the output map and the sorted module names —
// everything a built metagraph keeps — so a decoded metagraph answers
// every query identically to the freshly built one.
func (mg *Metagraph) Encode() ([]byte, error) {
	if mg == nil {
		return nil, fmt.Errorf("metagraph: encode nil metagraph")
	}
	if mg.G.NumNodes() != len(mg.Nodes) {
		return nil, fmt.Errorf("metagraph: %d graph nodes vs %d metadata nodes", mg.G.NumNodes(), len(mg.Nodes))
	}
	w := binenc.NewWriter(1 << 16)
	w.U32(mgCodecVersion)

	w.Len(len(mg.Nodes))
	for i := range mg.Nodes {
		n := &mg.Nodes[i]
		w.String(n.Key)
		w.String(n.Display)
		w.String(n.Canonical)
		w.String(n.Module)
		w.String(n.Subprogram)
		w.Int(n.Line)
		w.Bool(n.Intrinsic)
	}

	// Edges in the digraph's canonical iteration order (source id
	// ascending, out-neighbors in insertion order); replaying AddEdge
	// in this order on decode reproduces the adjacency byte for byte.
	w.Len(mg.G.NumEdges())
	mg.G.Edges(func(u, v int) {
		w.Int(u)
		w.Int(v)
	})

	labels := make([]string, 0, len(mg.OutputMap))
	for k := range mg.OutputMap {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	w.Len(len(labels))
	for _, k := range labels {
		w.String(k)
		w.String(mg.OutputMap[k])
	}

	w.Int(mg.Unparsed)

	w.Len(len(mg.modules))
	for _, name := range mg.modules {
		w.String(name)
	}
	return w.Bytes(), nil
}

// Decode reconstructs a metagraph from Encode bytes. byKey and
// byCanonical are rebuilt from the node list exactly as Build interns
// them (creation order, intrinsics excluded from byCanonical), so
// lookup-based queries are unchanged.
func Decode(data []byte) (*Metagraph, error) {
	r := binenc.NewReader(data)
	if v := r.U32(); v != mgCodecVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("metagraph: codec version %d, want %d", v, mgCodecVersion)
	}
	nNodes := r.Len()
	mg := &Metagraph{
		G:           graph.New(nNodes),
		byKey:       make(map[string]int, nNodes),
		byCanonical: make(map[string][]int, nNodes),
		OutputMap:   make(map[string]string),
	}
	mg.Nodes = make([]Node, nNodes)
	for i := range mg.Nodes {
		mg.Nodes[i] = Node{
			Key:        r.String(),
			Display:    r.String(),
			Canonical:  r.String(),
			Module:     r.String(),
			Subprogram: r.String(),
			Line:       r.Int(),
			Intrinsic:  r.Bool(),
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		mg.G.AddNode()
		mg.byKey[mg.Nodes[i].Key] = i
		if !mg.Nodes[i].Intrinsic {
			mg.byCanonical[mg.Nodes[i].Canonical] = append(mg.byCanonical[mg.Nodes[i].Canonical], i)
		}
	}
	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		u, v := r.Int(), r.Int()
		if u < 0 || u >= nNodes || v < 0 || v >= nNodes {
			return nil, binenc.ErrMalformed
		}
		mg.G.AddEdge(u, v)
	}
	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		k := r.String()
		mg.OutputMap[k] = r.String()
	}
	mg.Unparsed = r.Int()
	for n := r.Len(); n > 0 && r.Err() == nil; n-- {
		name := r.String()
		if k := len(mg.modules); k > 0 && name <= mg.modules[k-1] {
			return nil, binenc.ErrMalformed // Encode writes them strictly sorted
		}
		mg.modules = append(mg.modules, name)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return mg, nil
}
