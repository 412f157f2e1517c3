package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	rca "github.com/climate-rca/rca"
)

// The corpus and ensemble sizes every workload uses: the sizes the
// repository's pipeline benchmarks have always run at.
var benchCorpus = rca.CorpusConfig{AuxModules: 40, Seed: 2}

const (
	benchEnsemble = 30
	benchExpSize  = 8
)

func newSession(opts ...rca.Option) *rca.Session {
	base := []rca.Option{rca.WithEnsembleSize(benchEnsemble), rca.WithExpSize(benchExpSize)}
	return rca.NewSession(benchCorpus, append(base, opts...)...)
}

// stageNames are the catalog's traced stages, in pipeline order: the
// op's fingerprint, then each scenario's stages.
var stageNames = []string{"fingerprint", "builds", "verdict", "select", "compile", "slice", "refine"}

// startCatalog sets up the catalog workload: each op runs the paper's
// six §6 investigations with RunAll on a fresh session.
func startCatalog(ctx context.Context, _ uint64) (*harness, error) {
	h := &harness{
		clients:   1,
		op:        catalogOp,
		layers:    catalogLayers,
		reference: catalogReference,
		refKey:    func(int) int { return 0 },
		close:     func() {},
	}
	if rec := catalogOp(ctx, 0, nil); rec.Err != "" {
		return nil, fmt.Errorf("catalog: first op: %s", rec.Err)
	}
	return h, nil
}

func catalogOp(ctx context.Context, _ int, t *tracer) opRecord {
	start := time.Now()
	s := newSession()
	var outs []*rca.Outcome
	var err error
	if t == nil {
		outs, err = s.RunAll(ctx, rca.Experiments())
	} else {
		outs, err = tracedRunAll(ctx, s, t)
	}
	rec := opRecord{Ms: ms(time.Since(start))}
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Digest = digest(formatOutcomes(outs))
	fits, iters := s.LassoStats()
	hits, misses := s.CompileCacheStats()
	rec.Counts = map[string]float64{
		"lasso_fits": float64(fits), "lasso_iters": float64(iters),
		"compile_hits": float64(hits), "compile_misses": float64(misses),
	}
	return rec
}

func formatOutcomes(outs []*rca.Outcome) []byte {
	var b bytes.Buffer
	for _, o := range outs {
		b.WriteString(rca.FormatOutcome(o))
	}
	return b.Bytes()
}

// tracedRunAll does RunAll's work through the session's stage methods,
// with a span around each call: the fingerprint first, then each
// scenario's stages on GOMAXPROCS workers, as RunAll schedules them. A
// stage call made while another scenario computes the same cache cell
// (equal Keys for that stage) is recorded as experiments.wait.
func tracedRunAll(ctx context.Context, s *rca.Session, t *tracer) ([]*rca.Outcome, error) {
	root := t.begin("op", "catalog", 0)
	defer t.end(root)
	fp := t.begin("experiments.fingerprint", "", root)
	_, err := s.Fingerprint(ctx)
	t.end(fp)
	if err != nil {
		return nil, err
	}

	scs := rca.Experiments()
	outs := make([]*rca.Outcome, len(scs))
	errs := make([]error, len(scs))
	var mu sync.Mutex
	computing := make(map[string]int) // stage|cache key -> scenario computing it
	stage := func(sc int, parent int, name, key string, call func() error) error {
		cell := name + "|" + key
		mu.Lock()
		owner, busy := computing[cell]
		if !busy {
			computing[cell] = sc
		}
		mu.Unlock()
		span := "experiments." + name
		if busy && owner != sc {
			span = "experiments.wait"
		}
		id := t.begin(span, name, parent)
		err := call()
		t.end(id)
		if !busy {
			mu.Lock()
			delete(computing, cell)
			mu.Unlock()
		}
		return err
	}
	runOne := func(i int) error {
		sc := scs[i]
		sp := t.begin("scenario", sc.Name(), root)
		defer t.end(sp)
		keys, err := s.Keys(sc)
		if err != nil {
			return err
		}
		steps := []struct {
			name, key string
			call      func() error
		}{
			{"builds", keys.Source, func() error { _, err := s.Builds(ctx, sc); return err }},
			{"verdict", keys.Build, func() error { _, err := s.Verdict(ctx, sc); return err }},
			{"select", keys.Scenario, func() error { _, err := s.SelectVariables(ctx, sc); return err }},
			{"compile", keys.Build, func() error { _, err := s.Compile(ctx, sc); return err }},
			{"slice", keys.Scenario, func() error { _, err := s.Slice(ctx, sc); return err }},
			{"refine", keys.Scenario, func() error { _, err := s.Refine(ctx, sc); return err }},
		}
		for _, st := range steps {
			if err := stage(i, sp, st.name, st.key, st.call); err != nil {
				return err
			}
		}
		// Every stage is cached now: Run only assembles the outcome.
		outs[i], err = s.Run(ctx, sc)
		return err
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(scs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = runOne(i)
			}
		}()
	}
	for i := range scs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

func catalogReference(ctx context.Context, _ int) (string, error) {
	outs, err := newSession(rca.WithParallelism(1)).RunAll(ctx, rca.Experiments())
	if err != nil {
		return "", err
	}
	return digest(formatOutcomes(outs)), nil
}

// catalogLayers splits the traced ops' wall time among the stages and
// reports the session's lasso and compile-cache counters per op.
func catalogLayers(recs []opRecord, spans []span, _ map[string]float64) map[string]float64 {
	m := make(map[string]float64)
	traces := byTrace(spans)
	var selectNs float64
	var fracs []float64
	for _, tr := range traces {
		attr, self := attribute(tr), selfTimes(tr)
		var wall, staged int64
		for _, s := range tr {
			if s.Parent == 0 {
				wall += s.dur()
			}
			if s.Name == "experiments.select" {
				selectNs += float64(self[s.ID])
			}
		}
		for _, st := range append(stageNames, "wait") {
			ns := attr["experiments."+st]
			staged += ns
			m["experiments."+st+"_ms"] += float64(ns) / 1e6 / float64(len(traces))
		}
		fracs = append(fracs, ratio(float64(staged), float64(wall)))
	}
	m["experiments.attributed_frac"] = mean(fracs)
	n := float64(len(recs))
	m["lasso.fits"] = sumCount(recs, "lasso_fits", nil) / n
	m["lasso.iters"] = sumCount(recs, "lasso_iters", nil) / n
	m["lasso.us_per_iter"] = ratio(selectNs/1e3, sumCount(recs, "lasso_iters", traced))
	addCompileCache(m, recs)
	m["trace_overhead_frac"] = traceOverhead(recs)
	return m
}

// addCompileCache reports bytecode program compilations per op and the
// share of integrations that reused a compiled program.
func addCompileCache(m map[string]float64, recs []opRecord) {
	hits, misses := sumCount(recs, "compile_hits", nil), sumCount(recs, "compile_misses", nil)
	m["bytecode.compile_misses"] = misses / float64(len(recs))
	m["bytecode.compile_hit_ratio"] = ratio(hits, hits+misses)
}
