package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/search"
)

// Search pools: poolSize distinct scalings micro_mg_tend.VAR *= 1+k·1e-5
// with k in 1..maxScaleStep. Small factors keep most composed failure
// rates below 100%, so the incumbent bound prunes (~20 of 93 subsets
// evaluated) as it does on real pools.
const (
	poolSize     = 8
	maxScaleStep = 10
	maxSubset    = 3
)

var scaleVars = []string{"pre", "qsout", "tlat", "qric"}

// opRand is the random stream for op i of a seeded run.
func opRand(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(i)))
}

// searchPool draws op i's candidate pool.
func searchPool(seed uint64, i int) []rca.Injection {
	r := opRand(seed, i)
	seen := make(map[string]bool)
	pool := make([]rca.Injection, 0, poolSize)
	for len(pool) < poolSize {
		v, k := scaleVars[r.IntN(len(scaleVars))], 1+r.IntN(maxScaleStep)
		if seen[v+strconv.Itoa(k)] {
			continue
		}
		seen[v+strconv.Itoa(k)] = true
		f, _ := strconv.ParseFloat(fmt.Sprintf("1.%05d", k), 64)
		pool = append(pool, rca.ScaleAssignment{Module: "micro_mg", Subprogram: "micro_mg_tend", Var: v, Factor: f})
	}
	return pool
}

// startSearch sets up the search workload: each op is a maxdelta
// branch-and-bound search over a fresh pool on a fresh session.
func startSearch(ctx context.Context, seed uint64) (*harness, error) {
	h := &harness{
		clients: 1,
		op: func(ctx context.Context, i int, t *tracer) opRecord {
			return searchOp(ctx, searchPool(seed, i), t)
		},
		layers: searchLayers,
		reference: func(ctx context.Context, i int) (string, error) {
			return searchReference(ctx, seed, i)
		},
		refKey: func(i int) int { return i },
		close:  func() {},
	}
	// The cold first op searches one fixed pool, whatever the seed, so
	// that setup_s measures the same work on every run.
	if rec := searchOp(ctx, searchPool(0, 0), nil); rec.Err != "" {
		return nil, fmt.Errorf("search: first op: %s", rec.Err)
	}
	return h, nil
}

func searchReference(ctx context.Context, seed uint64, i int) (string, error) {
	res, err := rca.Search(ctx, newSession(rca.WithParallelism(1)), searchOptions(searchPool(seed, i)))
	if err != nil {
		return "", err
	}
	return digest([]byte(rca.FormatSearchResult(res))), nil
}

func searchOptions(pool []rca.Injection) rca.SearchOptions {
	return rca.SearchOptions{Pool: pool, Objective: rca.SearchMaxDelta, MaxSubset: maxSubset}
}

func searchOp(ctx context.Context, pool []rca.Injection, t *tracer) opRecord {
	opts := searchOptions(pool)
	var expanded [][]string
	if t != nil {
		opts.Progress = func(ev rca.SearchEvent) {
			if ev.Kind == search.EventExpanded {
				expanded = append(expanded, ev.IDs)
			}
		}
	}
	start := time.Now()
	root := t.begin("op", "search", 0)
	s := newSession()
	res, err := rca.Search(ctx, s, opts)
	t.end(root)
	rec := opRecord{Ms: ms(time.Since(start))}
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Digest = digest([]byte(rca.FormatSearchResult(res)))
	hits, misses := s.CompileCacheStats()
	fits, iters := s.LassoStats()
	rec.Counts = map[string]float64{
		"evals": float64(res.Stats.Evaluations), "pruned": float64(res.Stats.Pruned),
		"infeasible": float64(res.Stats.Infeasible), "exhaustive": float64(res.Stats.Exhaustive),
		"compile_hits": float64(hits), "compile_misses": float64(misses),
		"lasso_fits": float64(fits), "lasso_iters": float64(iters),
	}
	if t != nil {
		n, err := replayNodes(ctx, pool, expanded, t)
		if err != nil {
			rec.Err = "replay: " + err.Error()
			return rec
		}
		rec.Counts["replayed"] = float64(n)
	}
	return rec
}

// replayNodes times each node the search evaluated, split into its
// corpus builds and its UF-ECT verdict: the base scenario and every
// expanded subset (IDs mapped back to pool injections) run through
// Builds and Verdict on a fresh session. It returns the node count.
func replayNodes(ctx context.Context, pool []rca.Injection, expanded [][]string, t *tracer) (int, error) {
	byID := make(map[string]rca.Injection, len(pool))
	for _, inj := range pool {
		byID[inj.ID()] = inj
	}
	root := t.begin("replay", "search", 0)
	defer t.end(root)
	s := newSession()
	fp := t.begin("experiments.fingerprint", "", root)
	_, err := s.Fingerprint(ctx)
	t.end(fp)
	if err != nil {
		return 0, err
	}
	nodes := append([][]string{nil}, expanded...)
	seen := make(map[string]bool)
	n := 0
	for _, ids := range nodes {
		key := strings.Join(ids, "+")
		if seen[key] {
			continue
		}
		seen[key] = true
		injs := make([]rca.Injection, len(ids))
		for k, id := range ids {
			if injs[k] = byID[id]; injs[k] == nil {
				return 0, fmt.Errorf("expanded node names %s, not in the pool", id)
			}
		}
		sc := rca.NewScenario("base+"+key, rca.ScenarioOptions{}, injs...)
		b := t.begin("search.node_builds", key, root)
		_, err := s.Builds(ctx, sc)
		t.end(b)
		if err != nil {
			return 0, err
		}
		v := t.begin("search.node_verdict", key, root)
		_, err = s.Verdict(ctx, sc)
		t.end(v)
		if err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

func searchLayers(recs []opRecord, spans []span, _ map[string]float64) map[string]float64 {
	m := make(map[string]float64)
	n := float64(len(recs))
	evals := sumCount(recs, "evals", nil)
	m["search.evals"] = evals / n
	m["search.pruned"] = sumCount(recs, "pruned", nil) / n
	m["search.infeasible"] = sumCount(recs, "infeasible", nil) / n
	m["search.prune_ratio"] = ratio(sumCount(recs, "exhaustive", nil), evals)
	var untracedMs float64
	for _, ms := range latencies(recs, untraced) {
		untracedMs += ms
	}
	m["search.ms_per_eval"] = ratio(untracedMs, sumCount(recs, "evals", untraced))
	var buildsNs, verdictNs float64
	for _, s := range spans {
		switch s.Name {
		case "search.node_builds":
			buildsNs += float64(s.dur())
		case "search.node_verdict":
			verdictNs += float64(s.dur())
		}
	}
	replayed := sumCount(recs, "replayed", traced)
	m["search.node_builds_ms"] = ratio(buildsNs/1e6, replayed)
	m["search.node_verdict_ms"] = ratio(verdictNs/1e6, replayed)
	m["lasso.fits"] = sumCount(recs, "lasso_fits", nil) / n
	m["lasso.iters"] = sumCount(recs, "lasso_iters", nil) / n
	addCompileCache(m, recs)
	m["trace_overhead_frac"] = traceOverhead(recs)
	return m
}
