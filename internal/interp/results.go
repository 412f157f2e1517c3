package interp

import "sort"

// LaneSlice is a strided view of one lane's elements inside a batched
// engine's struct-of-arrays storage: element i lives at
// Data[i*Stride+Off]. Over the mutable []float64 Machine.ModuleArray
// returns it is a Stride-1 view. The model's per-member
// initial-condition perturbation writes through it on either engine.
type LaneSlice struct {
	Data   []float64
	Stride int
	Off    int
}

// Len returns the number of lane elements.
func (s LaneSlice) Len() int {
	if s.Stride <= 0 {
		return 0
	}
	return len(s.Data) / s.Stride
}

// Add adds dv to element i of the lane in place.
func (s LaneSlice) Add(i int, dv float64) { s.Data[i*s.Stride+s.Off] += dv }

// Results collects everything one integration captures, shared by both
// engines. The maps are keyed exactly alike so downstream consumers
// (ECT means, KGen kernel comparison, runtime-sampling refinement)
// cannot tell the engines apart.
type Results struct {
	// Outputs captures outfld calls: label → field (copied).
	Outputs map[string][]float64
	// Kernel holds the last KernelWatch snapshot: variable → values.
	Kernel map[string][]float64
	// AllValues holds SnapshotAll captures keyed by the metagraph's
	// node-key convention (module::subprogram::variable, and
	// module::::variable for module-level state).
	AllValues map[string][]float64
}

// NewResults allocates the capture maps.
func NewResults() Results {
	return Results{
		Outputs:   make(map[string][]float64),
		Kernel:    make(map[string][]float64),
		AllValues: make(map[string][]float64),
	}
}

// OutputMeans returns the global mean of each captured output field —
// the "global means" the ECT consumes.
func (r *Results) OutputMeans() map[string]float64 {
	out := make(map[string]float64, len(r.Outputs))
	for k, field := range r.Outputs {
		var s float64
		for _, v := range field {
			s += v
		}
		if len(field) > 0 {
			s /= float64(len(field))
		}
		out[k] = s
	}
	return out
}

// OutputNames returns the sorted captured output labels.
func (r *Results) OutputNames() []string {
	names := make([]string, 0, len(r.Outputs))
	for k := range r.Outputs {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
