package experiments

import (
	"github.com/climate-rca/rca/internal/core"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/model"
	"github.com/climate-rca/rca/internal/slicing"
)

// RefineInput is everything a Sampler needs to run the Algorithm 5.4
// refinement over one compiled, sliced experiment.
type RefineInput struct {
	Metagraph *metagraph.Metagraph
	Slice     *slicing.Slice
	// Control and Exper are the two model builds; RunCfg/ExpRunCfg are
	// their base run configurations (RNG and FMA settings).
	Control, Exper    *model.Runner
	RunCfg, ExpRunCfg model.RunConfig
	// BugNodes are the known defect locations (metagraph ids), used by
	// the reachability simulation and the step-9 success check.
	BugNodes []int
	Options  core.Options
}

// Sampler selects the step-7 instrumentation strategy for the
// refinement loop. The three paper variants are ValueSampling (real runtime snapshots),
// ReachSampling (the paper's reachability simulation) and
// GradedSampling (the §6.3 magnitude-ranked extension).
type Sampler interface {
	// Kind is the strategy's stable name ("value", "reach", "graded").
	Kind() string
	// Refine runs Algorithm 5.4 with this strategy's instrumentation.
	Refine(in RefineInput) (*core.Result, error)
}

// snapshotRuns integrates both builds once with full variable
// snapshots on the same perturbation member — the instrumented pair
// every value-based sampler compares.
func snapshotRuns(in RefineInput) (ens, exp map[string][]float64, err error) {
	ctl := in.RunCfg
	ctl.Member = 1000
	ctl.SnapshotAll = true
	cres, err := in.Control.Run(ctl)
	if err != nil {
		return nil, nil, err
	}
	ex := in.ExpRunCfg
	ex.Member = 1000
	ex.SnapshotAll = true
	eres, err := in.Exper.Run(ex)
	if err != nil {
		return nil, nil, err
	}
	return cres.AllValues, eres.AllValues, nil
}

type valueSampler struct{ tol float64 }

// ValueSampling instruments nodes with real runtime value snapshots
// and compares per-node values between the builds; tol <= 0 selects
// the default normalized-RMS tolerance (1e-12).
func ValueSampling(tol float64) Sampler { return valueSampler{tol: tol} }

func (valueSampler) Kind() string { return "value" }

func (v valueSampler) Refine(in RefineInput) (*core.Result, error) {
	ens, exp, err := snapshotRuns(in)
	if err != nil {
		return nil, err
	}
	keyOf := func(n int) string { return in.Metagraph.Nodes[n].Key }
	s := core.ValueSampler(keyOf, ens, exp, v.tol)
	return core.Refine(in.Slice.Sub, in.Slice.NodeMap, s, in.BugNodes, in.Options)
}

type reachSampler struct{}

// ReachSampling simulates instrumentation the way the paper does
// (§5.2): a node registers a difference iff it is reachable from a
// known bug node in the full metagraph.
func ReachSampling() Sampler { return reachSampler{} }

func (reachSampler) Kind() string { return "reach" }

func (reachSampler) Refine(in RefineInput) (*core.Result, error) {
	s := core.ReachabilitySampler(in.Metagraph.G, in.BugNodes)
	return core.Refine(in.Slice.Sub, in.Slice.NodeMap, s, in.BugNodes, in.Options)
}

type gradedSampler struct{}

// GradedSampling is the §6.3 future-work extension: value snapshots
// ranked by difference magnitude, contracting to the
// greatest-difference node when plain contraction would hit a fixed
// point.
func GradedSampling() Sampler { return gradedSampler{} }

func (gradedSampler) Kind() string { return "graded" }

func (gradedSampler) Refine(in RefineInput) (*core.Result, error) {
	ens, exp, err := snapshotRuns(in)
	if err != nil {
		return nil, err
	}
	keyOf := func(n int) string { return in.Metagraph.Nodes[n].Key }
	g := core.MagnitudeSampler(keyOf, ens, exp)
	return core.RefineWithMagnitudes(in.Slice.Sub, in.Slice.NodeMap, g, in.BugNodes, in.Options)
}
