// Package search explores the injection space with branch-and-bound:
// given a base scenario, a pool of candidate injections, and an
// objective, it walks ordered injection subsets (index tuples over the
// priority-sorted pool, children extending a node with strictly larger
// indices so every subset is visited exactly once), pruning subtrees
// whose optimistic bound cannot beat the incumbent.
//
// The search is deterministic at every parallelism level: each wave's
// membership is fixed before any node in it is evaluated, evaluations
// land in indexed slots, and results are then processed sequentially
// in canonical order. Node evaluations are keyed by the session's
// layered build fingerprints, so an attached artifact store makes
// revisits free across processes and lets concurrent workers share one
// global incumbent.
package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/experiments"
)

// Objective selects what the search optimizes.
type Objective string

const (
	// ObjectiveMinFlip finds the smallest candidate subset whose
	// composed scenario fails UF-ECT at least at the threshold rate.
	// Ties break toward higher failure rate, then canonical order.
	ObjectiveMinFlip Objective = "minflip"
	// ObjectiveMaxDelta finds the subset (at most MaxSubset large)
	// with the highest composed failure rate — the largest
	// verdict-confidence delta over the base scenario.
	ObjectiveMaxDelta Objective = "maxdelta"
	// ObjectiveRank ranks the candidates alone by failure-rate delta
	// over the base — the most-fragile-injection view. Probes only; no
	// tree search.
	ObjectiveRank Objective = "rank"
)

// ParseObjective maps a wire/CLI name to an Objective.
func ParseObjective(s string) (Objective, error) {
	switch Objective(s) {
	case ObjectiveMinFlip, ObjectiveMaxDelta, ObjectiveRank:
		return Objective(s), nil
	case "":
		return ObjectiveMinFlip, nil
	}
	return "", fmt.Errorf("search: unknown objective %q (want minflip, maxdelta or rank)", s)
}

// MaxPool bounds the candidate pool. 32 keeps the exhaustive subset
// count (the pruning-ratio denominator) inside int64.
const MaxPool = 32

// DefaultThreshold is the minflip verdict threshold when the request
// leaves it zero: the failure rate at which an investigation's UF-ECT
// verdict is read as "distinguishable from the control ensemble".
const DefaultThreshold = 0.5

// Options configure one search run.
type Options struct {
	// Base is the scenario every candidate subset is layered onto.
	// Nil means the clean baseline.
	Base experiments.Scenario
	// Pool is the candidate injections (at most MaxPool, unique IDs).
	Pool []experiments.Injection
	// Objective defaults to ObjectiveMinFlip.
	Objective Objective
	// Threshold is the minflip flip threshold in (0,1]; zero means
	// DefaultThreshold.
	Threshold float64
	// MaxSubset caps subset size; zero means the pool size for
	// minflip/rank and min(3, pool size) for maxdelta.
	MaxSubset int
	// Parallelism bounds concurrent node evaluations; zero means
	// GOMAXPROCS. The result is identical at every value.
	Parallelism int
	// Progress, when set, receives events. Events are emitted
	// sequentially from the canonical processing order, so the stream
	// is itself deterministic at every parallelism level.
	Progress func(Event)
}

// EventKind names one progress event class.
type EventKind string

const (
	// EventWave opens wave k (probes are wave 1).
	EventWave EventKind = "wave"
	// EventExpanded reports one node evaluated.
	EventExpanded EventKind = "expanded"
	// EventPruned reports one child subtree cut by a bound.
	EventPruned EventKind = "pruned"
	// EventIncumbent reports a new best-known solution.
	EventIncumbent EventKind = "incumbent"
)

// Event is one search progress event.
type Event struct {
	Kind EventKind
	// Wave is the subset size being explored (0 = warm start).
	Wave int
	// IDs is the node's injection IDs in canonical order (nil for
	// wave events).
	IDs []string
	// Rate is the node's composed failure rate (incumbent/expanded).
	Rate float64
	// By labels incumbent provenance: probe, greedy, search or peer.
	By string
}

// Candidate is one pool entry with its single-injection probe result.
type Candidate struct {
	ID       string  `json:"id"`
	Rate     float64 `json:"rate"`
	Delta    float64 `json:"delta"`
	Feasible bool    `json:"feasible"`
}

// Subset is one evaluated injection subset.
type Subset struct {
	// IDs lists the member injections in canonical (priority) order.
	IDs  []string `json:"ids"`
	Rate float64  `json:"rate"`
}

// IncumbentUpdate is one entry of the incumbent trace.
type IncumbentUpdate struct {
	// Wave is the subset size under exploration at discovery time
	// (0 for the greedy warm start's base probe adoption).
	Wave int `json:"wave"`
	// By is the discovery mechanism: probe, greedy, search or peer.
	By     string `json:"by"`
	Subset Subset `json:"subset"`
}

// Stats counts the search's work. All counters are deterministic for a
// given request, independent of parallelism and store warmth.
type Stats struct {
	// Evaluations counts distinct subsets whose failure rate the
	// search requested (including the base scenario).
	Evaluations int `json:"evaluations"`
	// Expanded counts node visits in the tree (probes, greedy prefix
	// steps and wave nodes).
	Expanded int `json:"expanded"`
	// Pruned counts child subtrees cut by bound or incumbent tests.
	Pruned int `json:"pruned"`
	// Infeasible counts visited subsets whose injections conflict.
	Infeasible int `json:"infeasible"`
	// Waves is the largest subset size explored.
	Waves int `json:"waves"`
	// Exhaustive is the subset count a full enumeration up to
	// MaxSubset would evaluate — the pruning-ratio denominator.
	Exhaustive int64 `json:"exhaustive"`
}

// Result is one finished search.
type Result struct {
	Objective Objective `json:"objective"`
	Threshold float64   `json:"threshold,omitempty"`
	MaxSubset int       `json:"maxsubset"`
	BaseName  string    `json:"base"`
	BaseRate  float64   `json:"baseRate"`
	// Candidates lists the pool in priority order (probe delta
	// descending, ID ascending), infeasible entries last.
	Candidates []Candidate `json:"candidates"`
	// Best is the winning subset, nil when no subset satisfies the
	// objective (minflip with nothing reaching the threshold).
	Best *Subset `json:"best,omitempty"`
	// Incumbents is the incumbent trace in discovery order.
	Incumbents []IncumbentUpdate `json:"incumbents,omitempty"`
	Stats      Stats             `json:"stats"`
}

// Run executes one branch-and-bound search over the session.
func Run(ctx context.Context, s *experiments.Session, opts Options) (*Result, error) {
	if s == nil {
		return nil, errors.New("search: nil session")
	}
	obj, err := ParseObjective(string(opts.Objective))
	if err != nil {
		return nil, err
	}
	if len(opts.Pool) == 0 {
		return nil, errors.New("search: empty candidate pool")
	}
	if len(opts.Pool) > MaxPool {
		return nil, fmt.Errorf("search: pool has %d candidates (max %d)", len(opts.Pool), MaxPool)
	}
	seen := make(map[string]bool, len(opts.Pool))
	for _, inj := range opts.Pool {
		if inj == nil {
			return nil, errors.New("search: nil injection in pool")
		}
		if seen[inj.ID()] {
			return nil, fmt.Errorf("search: duplicate pool injection %s", inj.ID())
		}
		seen[inj.ID()] = true
	}
	thr := opts.Threshold
	if thr == 0 {
		thr = DefaultThreshold
	}
	if thr < 0 || thr > 1 {
		return nil, fmt.Errorf("search: threshold %v outside (0,1]", opts.Threshold)
	}
	base := opts.Base
	if base == nil {
		base = experiments.NewScenario("base", experiments.ScenarioOptions{})
	}
	keys, err := s.Keys(base)
	if err != nil {
		return nil, fmt.Errorf("search: base scenario: %w", err)
	}
	maxSub := opts.MaxSubset
	if maxSub < 0 {
		return nil, fmt.Errorf("search: negative maxsubset %d", maxSub)
	}
	if maxSub == 0 {
		maxSub = len(opts.Pool)
		if obj == ObjectiveMaxDelta && maxSub > 3 {
			maxSub = 3
		}
	}
	if maxSub > len(opts.Pool) {
		maxSub = len(opts.Pool)
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	ens, runs := s.Sizes()
	e := &engine{
		session:   s,
		store:     s.ArtifactStore(),
		base:      base,
		baseKeys:  keys,
		pool:      append([]experiments.Injection(nil), opts.Pool...),
		objective: obj,
		threshold: thr,
		maxSubset: maxSub,
		par:       par,
		progress:  opts.Progress,
		runKey:    fmt.Sprintf("e=%d|r=%d", ens, runs),
		visited:   make(map[string]bool),
	}
	e.fingerprint = e.searchFingerprint()
	return e.run(ctx)
}

// node is one evaluated subset. subset holds priority-order pool
// indices (strictly increasing); it is nil for incumbents adopted from
// a peer, whose identity lives only in ids.
type node struct {
	subset []int
	ids    []string
	rate   float64
	// wave records the subset size under exploration at discovery
	// time, gating distributed adoption (see adoptIncumbent).
	wave int
}

type engine struct {
	session   *experiments.Session
	store     *artifact.Store
	base      experiments.Scenario
	baseKeys  experiments.Keys
	pool      []experiments.Injection // request order until reorder()
	objective Objective
	threshold float64
	maxSubset int
	par       int
	progress  func(Event)
	runKey    string
	// fingerprint identifies the search request across processes; the
	// shared incumbent blob is keyed by it.
	fingerprint string

	baseRate float64
	// order maps priority index -> original pool index; deltas and all
	// subsets below are in priority-index space over feasible
	// candidates only (a conflicting singleton conflicts in every
	// superset, so infeasible singletons leave the tree entirely).
	order  []int
	deltas []float64
	rates  []float64
	// topExtra[j][d] is the sum of the d largest positive deltas among
	// priority indices >= j — the optimistic headroom of extending a
	// node whose next extension index is j.
	topExtra [][]float64

	visited    map[string]bool
	stats      Stats
	incumbents []IncumbentUpdate
	best       *node
	published  *node
}

func (e *engine) emit(ev Event) {
	if e.progress != nil {
		e.progress(ev)
	}
}

func subsetKey(subset []int) string {
	var b strings.Builder
	for i, v := range subset {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

func (e *engine) searchFingerprint() string {
	ids := make([]string, len(e.pool))
	for i, inj := range e.pool {
		ids[i] = inj.ID()
	}
	sort.Strings(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "search1|%s|thr=%g|max=%d|%s|%s|", e.objective, e.threshold, e.maxSubset, e.runKey, e.baseKeys.Scenario)
	for _, id := range ids {
		b.WriteString(id)
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// ids returns the subset's injection IDs in canonical order.
func (e *engine) idsOf(subset []int) []string {
	out := make([]string, len(subset))
	for i, j := range subset {
		out[i] = e.pool[e.order[j]].ID()
	}
	return out
}

// scenarioFor composes the base scenario with the subset's injections.
func (e *engine) scenarioFor(subset []int) experiments.Scenario {
	injs := append([]experiments.Injection(nil), e.base.Injections()...)
	name := e.base.Name()
	for _, j := range subset {
		inj := e.pool[e.order[j]]
		injs = append(injs, inj)
		name += "+" + inj.ID()
	}
	return experiments.NewScenario(name, e.base.Options(), injs...)
}

// rawScenarioFor is scenarioFor before reorder(), indexing the pool
// directly; the probe phase uses it.
func (e *engine) rawScenarioFor(i int) experiments.Scenario {
	inj := e.pool[i]
	injs := append([]experiments.Injection(nil), e.base.Injections()...)
	injs = append(injs, inj)
	return experiments.NewScenario(e.base.Name()+"+"+inj.ID(), e.base.Options(), injs...)
}

type eval struct {
	rate     float64
	feasible bool
}

// evalScenario measures one composed scenario's failure rate,
// reporting feasible=false for conflicting injection sets. With a
// store attached, the verdict travels through GetOrBuildJSON keyed by
// the build fingerprint plus the session's run sizes, so any process
// sharing the store computes it at most once.
func (e *engine) evalScenario(ctx context.Context, sc experiments.Scenario) (eval, error) {
	keys, err := e.session.Keys(sc)
	if err != nil {
		if errors.Is(err, experiments.ErrConflictingInjections) {
			return eval{}, nil
		}
		return eval{}, err
	}
	if e.store != nil {
		var rec verdictRecord
		err := e.store.GetOrBuildJSON(ctx, artifact.ClassVerdict, keys.Build+"|"+e.runKey, &rec, func() (any, error) {
			v, err := e.session.Verdict(ctx, sc)
			if err != nil {
				return nil, err
			}
			return verdictRecord{Rate: v.FailureRate}, nil
		})
		if err != nil {
			return eval{}, err
		}
		return eval{rate: rec.Rate, feasible: true}, nil
	}
	v, err := e.session.Verdict(ctx, sc)
	if err != nil {
		return eval{}, err
	}
	return eval{rate: v.FailureRate, feasible: true}, nil
}

// evalAll evaluates scenarios with a bounded worker pool, results
// landing in slots indexed by position so ordering never depends on
// completion timing. The lowest-index error wins, mirroring the
// session's own run-set semantics.
func (e *engine) evalAll(ctx context.Context, scs []experiments.Scenario) ([]eval, error) {
	out := make([]eval, len(scs))
	errs := make([]error, len(scs))
	par := e.par
	if par > len(scs) {
		par = len(scs)
	}
	if par < 1 {
		par = 1
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scs) || failed.Load() {
					return
				}
				ev, err := e.evalScenario(ctx, scs[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = ev
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// visit marks a subset evaluated, counting distinct subsets once.
func (e *engine) visit(subset []int) {
	k := subsetKey(subset)
	if !e.visited[k] {
		e.visited[k] = true
		e.stats.Evaluations++
	}
}

// better reports whether a beats b under the objective's total order.
// minflip: smaller, then higher rate, then canonical order; maxdelta
// and rank: higher rate, then smaller, then canonical order.
func (e *engine) better(a, b *node) bool {
	if a == nil {
		return false
	}
	if b == nil {
		return true
	}
	if e.objective == ObjectiveMinFlip {
		if len(a.ids) != len(b.ids) {
			return len(a.ids) < len(b.ids)
		}
		if a.rate != b.rate {
			return a.rate > b.rate
		}
	} else {
		if a.rate != b.rate {
			return a.rate > b.rate
		}
		if len(a.ids) != len(b.ids) {
			return len(a.ids) < len(b.ids)
		}
	}
	return idsLess(a.ids, b.ids)
}

func idsLess(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// takeIncumbent installs n if it beats the incumbent, recording the
// trace entry and publishing to the shared store.
func (e *engine) takeIncumbent(ctx context.Context, n *node, by string) {
	if !e.better(n, e.best) {
		return
	}
	e.best = n
	e.incumbents = append(e.incumbents, IncumbentUpdate{
		Wave:   n.wave,
		By:     by,
		Subset: Subset{IDs: n.ids, Rate: n.rate},
	})
	e.emit(Event{Kind: EventIncumbent, Wave: n.wave, IDs: n.ids, Rate: n.rate, By: by})
	e.publishIncumbent(ctx)
}

func (e *engine) run(ctx context.Context) (*Result, error) {
	// Base rate.
	e.visit(nil)
	bev, err := e.evalScenario(ctx, e.base)
	if err != nil {
		return nil, err
	}
	if !bev.feasible {
		return nil, fmt.Errorf("search: base scenario: %w", experiments.ErrConflictingInjections)
	}
	e.baseRate = bev.rate

	// Wave 1: probe every candidate alone, in request order, then
	// derive the priority order (probe delta descending, ID
	// ascending) every later wave indexes by.
	e.emit(Event{Kind: EventWave, Wave: 1})
	probeScs := make([]experiments.Scenario, len(e.pool))
	for i := range e.pool {
		probeScs[i] = e.rawScenarioFor(i)
	}
	probes, err := e.evalAll(ctx, probeScs)
	if err != nil {
		return nil, err
	}
	candidates := e.reorder(probes)

	res := &Result{
		Objective:  e.objective,
		MaxSubset:  e.maxSubset,
		BaseName:   e.base.Name(),
		BaseRate:   e.baseRate,
		Candidates: candidates,
	}
	if e.objective == ObjectiveMinFlip {
		res.Threshold = e.threshold
	}
	e.stats.Waves = 1
	e.stats.Exhaustive = exhaustiveCount(len(e.pool), e.maxSubset)

	// Canonical processing of the probes: expansion events, stats and
	// (for minflip/maxdelta) the first incumbents.
	switch e.objective {
	case ObjectiveMinFlip:
		if e.baseRate >= e.threshold {
			// The base already flips: the empty subset is minimal.
			e.takeIncumbent(ctx, &node{subset: []int{}, ids: []string{}, rate: e.baseRate, wave: 0}, "probe")
		}
	case ObjectiveMaxDelta:
		// The empty subset is the do-nothing floor.
		e.takeIncumbent(ctx, &node{subset: []int{}, ids: []string{}, rate: e.baseRate, wave: 0}, "probe")
	}
	for i := range e.pool {
		e.visitRaw(probes, i)
	}
	var frontier []node
	for j := range e.order {
		n := node{subset: []int{j}, ids: e.idsOf([]int{j}), rate: e.rates[j], wave: 1}
		e.stats.Expanded++
		e.emit(Event{Kind: EventExpanded, Wave: 1, IDs: n.ids, Rate: n.rate})
		switch e.objective {
		case ObjectiveMinFlip:
			if n.rate >= e.threshold {
				e.takeIncumbent(ctx, &n, "probe")
				continue // any superset is larger; no need to extend
			}
		case ObjectiveMaxDelta, ObjectiveRank:
			e.takeIncumbent(ctx, &n, "probe")
		}
		frontier = append(frontier, n)
	}

	if e.objective == ObjectiveRank || e.doneAfterProbes() {
		return e.finish(res), nil
	}

	// Greedy warm start: evaluate priority-order prefixes to seed the
	// incumbent before the breadth-first waves begin.
	if err := e.greedy(ctx); err != nil {
		return nil, err
	}

	// Breadth-first waves of increasing subset size.
	for k := 2; k <= e.maxSubset; k++ {
		if e.objective == ObjectiveMinFlip && e.best != nil && len(e.best.ids) <= k {
			break // only strictly smaller subsets can improve
		}
		children := e.expand(frontier, k)
		if len(children) == 0 {
			break
		}
		e.stats.Waves = k
		e.emit(Event{Kind: EventWave, Wave: k})
		scs := make([]experiments.Scenario, len(children))
		for i, c := range children {
			e.visit(c)
			scs[i] = e.scenarioFor(c)
		}
		evs, err := e.evalAll(ctx, scs)
		if err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		for i, c := range children {
			n := node{subset: c, ids: e.idsOf(c), rate: evs[i].rate, wave: k}
			e.stats.Expanded++
			if !evs[i].feasible {
				e.stats.Infeasible++
				continue // conflicts are hereditary: prune the subtree
			}
			e.emit(Event{Kind: EventExpanded, Wave: k, IDs: n.ids, Rate: n.rate})
			switch e.objective {
			case ObjectiveMinFlip:
				if n.rate >= e.threshold {
					e.takeIncumbent(ctx, &n, "search")
					continue
				}
			case ObjectiveMaxDelta:
				e.takeIncumbent(ctx, &n, "search")
			}
			frontier = append(frontier, n)
		}
	}
	return e.finish(res), nil
}

// visitRaw marks a probe subset visited in priority-index space.
func (e *engine) visitRaw(probes []eval, i int) {
	for j, oi := range e.order {
		if oi == i {
			e.visit([]int{j})
			return
		}
	}
	// Infeasible singleton: count the visit under a synthetic key so
	// distinct-subset accounting still sees it exactly once.
	if probes[i].feasible {
		return
	}
	k := "x" + strconv.Itoa(i)
	if !e.visited[k] {
		e.visited[k] = true
		e.stats.Evaluations++
		e.stats.Expanded++
		e.stats.Infeasible++
	}
}

// reorder derives the priority order from the probe results and fills
// the engine's priority-space tables. It returns the report
// candidates: feasible entries in priority order, infeasible last.
func (e *engine) reorder(probes []eval) []Candidate {
	type cand struct {
		i     int
		id    string
		delta float64
	}
	var feas, infeas []cand
	for i, p := range probes {
		c := cand{i: i, id: e.pool[i].ID(), delta: p.rate - e.baseRate}
		if p.feasible {
			feas = append(feas, c)
		} else {
			infeas = append(infeas, c)
		}
	}
	sort.Slice(feas, func(a, b int) bool {
		if feas[a].delta != feas[b].delta {
			return feas[a].delta > feas[b].delta
		}
		return feas[a].id < feas[b].id
	})
	sort.Slice(infeas, func(a, b int) bool { return infeas[a].id < infeas[b].id })

	e.order = make([]int, len(feas))
	e.deltas = make([]float64, len(feas))
	e.rates = make([]float64, len(feas))
	candidates := make([]Candidate, 0, len(probes))
	for j, c := range feas {
		e.order[j] = c.i
		e.deltas[j] = c.delta
		e.rates[j] = probes[c.i].rate
		candidates = append(candidates, Candidate{ID: c.id, Rate: probes[c.i].rate, Delta: c.delta, Feasible: true})
	}
	for _, c := range infeas {
		candidates = append(candidates, Candidate{ID: c.id, Delta: 0, Feasible: false})
	}

	// topExtra[j][d]: sum of the d largest positive deltas at indices
	// >= j. m <= MaxPool keeps the quadratic table trivial.
	m := len(feas)
	e.topExtra = make([][]float64, m+1)
	for j := m; j >= 0; j-- {
		pos := make([]float64, 0, m-j)
		for t := j; t < m; t++ {
			if e.deltas[t] > 0 {
				pos = append(pos, e.deltas[t])
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(pos)))
		row := make([]float64, m+1)
		for d := 1; d <= m; d++ {
			row[d] = row[d-1]
			if d-1 < len(pos) {
				row[d] += pos[d-1]
			}
		}
		e.topExtra[j] = row
	}
	return candidates
}

// upperBound is the optimistic failure rate any descendant of parent
// extended first by priority index j can reach, allowed to grow by at
// most `extra` further members. It assumes rate gains are sub-additive
// — composing an injection never raises the failure rate by more than
// its solo probe delta — which makes the bound monotone along any
// root-to-leaf path.
func (e *engine) upperBound(parentRate float64, j, extra int) float64 {
	ub := parentRate + max0(e.deltas[j])
	if extra > 0 {
		ub += e.topExtra[j+1][extra]
	}
	if ub > 1 {
		ub = 1
	}
	return ub
}

func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// expand generates wave k's admitted children in canonical order
// (frontier order, then extension index ascending — lexicographic over
// index tuples), applying the incumbent-aware bound to each.
func (e *engine) expand(frontier []node, k int) [][]int {
	e.adoptIncumbent(k)
	// target is the largest subset size still worth growing toward.
	target := e.maxSubset
	if e.objective == ObjectiveMinFlip && e.best != nil && len(e.best.ids)-1 < target {
		target = len(e.best.ids) - 1
	}
	var children [][]int
	for _, p := range frontier {
		last := -1
		if len(p.subset) > 0 {
			last = p.subset[len(p.subset)-1]
		}
		for j := last + 1; j < len(e.order); j++ {
			child := append(append(make([]int, 0, k), p.subset...), j)
			ub := e.upperBound(p.rate, j, target-k)
			prune := false
			switch e.objective {
			case ObjectiveMinFlip:
				prune = k > target || ub < e.threshold
			case ObjectiveMaxDelta:
				prune = e.best != nil && ub < e.best.rate
			}
			if prune {
				e.stats.Pruned++
				e.emit(Event{Kind: EventPruned, Wave: k, IDs: e.idsOf(child), Rate: ub})
				continue
			}
			children = append(children, child)
		}
	}
	return children
}

// greedy evaluates priority-order prefixes of growing size — the
// classic warm start — so the first waves already prune against a
// plausible incumbent.
func (e *engine) greedy(ctx context.Context) error {
	prefix := []int{0}
	for size := 2; size <= e.maxSubset; size++ {
		if e.objective == ObjectiveMinFlip && e.best != nil && len(e.best.ids) <= size {
			return nil
		}
		if size-1 >= len(e.order) {
			return nil
		}
		prefix = append(prefix, size-1)
		e.visit(prefix)
		evs, err := e.evalAll(ctx, []experiments.Scenario{e.scenarioFor(prefix)})
		if err != nil {
			return err
		}
		n := node{subset: append([]int(nil), prefix...), ids: e.idsOf(prefix), rate: evs[0].rate, wave: 0}
		e.stats.Expanded++
		if !evs[0].feasible {
			e.stats.Infeasible++
			return nil // a conflicting prefix conflicts in every extension
		}
		e.emit(Event{Kind: EventExpanded, Wave: 0, IDs: n.ids, Rate: n.rate})
		switch e.objective {
		case ObjectiveMinFlip:
			if n.rate >= e.threshold {
				e.takeIncumbent(ctx, &n, "greedy")
				return nil
			}
		case ObjectiveMaxDelta:
			e.takeIncumbent(ctx, &n, "greedy")
		}
	}
	return nil
}

func (e *engine) doneAfterProbes() bool {
	if e.maxSubset <= 1 || len(e.order) == 0 {
		return true
	}
	// A flipping subset of size <= 1 already exists: minimal by
	// construction.
	return e.objective == ObjectiveMinFlip && e.best != nil && len(e.best.ids) <= 1
}

func (e *engine) finish(res *Result) *Result {
	if e.best != nil {
		if e.objective == ObjectiveMinFlip && e.best.rate < e.threshold {
			// Shouldn't happen — minflip incumbents always flip — but
			// never report a non-flipping Best.
			res.Best = nil
		} else {
			res.Best = &Subset{IDs: e.best.ids, Rate: e.best.rate}
		}
	}
	res.Incumbents = e.incumbents
	res.Stats = e.stats
	return res
}

// exhaustiveCount is sum_{k=0..maxSub} C(n, k): the subsets a full
// enumeration would evaluate. n <= MaxPool keeps it inside int64.
func exhaustiveCount(n, maxSub int) int64 {
	var total int64
	c := int64(1) // C(n, 0)
	total = c
	for k := 1; k <= maxSub && k <= n; k++ {
		c = c * int64(n-k+1) / int64(k)
		total += c
	}
	return total
}
