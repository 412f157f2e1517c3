package experiments

import (
	"context"
	"fmt"
	"sort"

	"github.com/climate-rca/rca/internal/centrality"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/metagraph"
	"github.com/climate-rca/rca/internal/model"
	"github.com/climate-rca/rca/internal/rng"
)

// Table1Row is one row of the paper's Table 1: an AVX2/FMA
// configuration and its UF-ECT failure rate.
type Table1Row struct {
	Config      string
	FailureRate float64
}

// Table1Setup sizes the selective-disablement study (§6.5).
type Table1Setup struct {
	EnsembleSize int // default 40
	ExpSize      int // default 12
	// TopK modules to disable per strategy (paper: 50 of 561).
	TopK int
	// RandomSamples is the number of random-module-set repetitions to
	// average (paper: 10).
	RandomSamples int
	Seed          uint64
}

func (s Table1Setup) withDefaults() Table1Setup {
	if s.EnsembleSize == 0 {
		s.EnsembleSize = 40
	}
	if s.ExpSize == 0 {
		s.ExpSize = 12
	}
	if s.TopK == 0 {
		s.TopK = 50
	}
	if s.RandomSamples == 0 {
		s.RandomSamples = 10
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// ModuleCentralityRanking ranks modules of the quotient (graph-minor)
// digraph by the sum of eigenvector in- and out-centrality — the §6.5
// "(in and out) centrality of the modules themselves".
func ModuleCentralityRanking(mg *metagraph.Metagraph) []string {
	part, names := mg.ModulePartition()
	q := mg.G.Quotient(part, len(names))
	in := centrality.EigenvectorIn(q, centrality.Options{})
	out := centrality.Eigenvector(q, centrality.Options{})
	type mc struct {
		name  string
		score float64
	}
	ranked := make([]mc, len(names))
	for i, n := range names {
		ranked[i] = mc{name: n, score: in[i] + out[i]}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].score != ranked[b].score {
			return ranked[a].score > ranked[b].score
		}
		return ranked[a].name < ranked[b].name
	})
	outNames := make([]string, len(ranked))
	for i, r := range ranked {
		outNames[i] = r.name
	}
	return outNames
}

// table1Rows runs the five disablement strategies against
// already-built state (a clean runner, a fitted ECT test and the full
// metagraph) for Session.Table1: the ensemble is generated with FMA
// disabled everywhere; experimental sets enable FMA everywhere except
// the modules in each strategy's disable set. The context is honored
// between ensemble members, so a canceled study stops mid-strategy
// rather than running all five sweeps.
func table1Rows(ctx context.Context, runner *model.Runner, test *ect.Test, mg *metagraph.Metagraph,
	setup Table1Setup, par, batch int) ([]Table1Row, error) {
	c := runner.Corpus
	rate := func(disabled map[string]bool) (float64, error) {
		fma := func(module string) bool { return !disabled[module] }
		runs, err := runSet(ctx, runner, setup.ExpSize, 1000, par, batch, model.RunConfig{FMA: fma})
		if err != nil {
			return 0, err
		}
		return test.FailureRate(runs), nil
	}
	toSet := func(names []string) map[string]bool {
		s := make(map[string]bool, len(names))
		for _, n := range names {
			s[n] = true
		}
		return s
	}
	allModules := c.Modules()
	k := setup.TopK
	if k > len(allModules) {
		k = len(allModules)
	}

	var rows []Table1Row

	// Row 1: AVX2 enabled, all modules.
	r1, err := rate(nil)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{"AVX2 enabled, all modules", r1})

	// Row 2: disabled on the K largest modules by lines of code.
	lines := c.LinesOf()
	byLines := append([]string(nil), allModules...)
	sort.Slice(byLines, func(a, b int) bool {
		if lines[byLines[a]] != lines[byLines[b]] {
			return lines[byLines[a]] > lines[byLines[b]]
		}
		return byLines[a] < byLines[b]
	})
	r2, err := rate(toSet(byLines[:k]))
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{fmt.Sprintf("AVX2 disabled, %d largest modules", k), r2})

	// Row 3: disabled on K random modules, averaged.
	gen := rng.NewLCG(setup.Seed)
	var sum float64
	for s := 0; s < setup.RandomSamples; s++ {
		perm := append([]string(nil), allModules...)
		for i := len(perm) - 1; i > 0; i-- {
			j := gen.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		rr, err := rate(toSet(perm[:k]))
		if err != nil {
			return nil, err
		}
		sum += rr
	}
	rows = append(rows, Table1Row{
		fmt.Sprintf("AVX2 disabled, %d rand mods (%d sample avg)", k, setup.RandomSamples),
		sum / float64(setup.RandomSamples)})

	// Row 4: disabled on the K most central modules (quotient graph).
	central := ModuleCentralityRanking(mg)
	if k > len(central) {
		k = len(central)
	}
	r4, err := rate(toSet(central[:k]))
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{fmt.Sprintf("AVX2 disabled, %d central modules", k), r4})

	// Row 5: disabled everywhere (false-positive rate).
	r5, err := rate(toSet(allModules))
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table1Row{"AVX2 disabled, all modules", r5})
	return rows, nil
}
