// Command rca runs the root-cause-analysis pipeline end to end on the
// synthetic CESM-like corpus: inject a scenario's defects, confirm
// the consistency-test failure, select affected variables, build the
// metagraph, slice, and iteratively refine to the defect. All modes
// share one rca.Session, so the corpus, the ensemble fingerprint and
// the metagraph are generated once per invocation. Ctrl-C cancels the
// run cleanly between pipeline checkpoints.
//
// Usage:
//
//	rca -experiment GOFFGRATCH -aux 100 -ensemble 40 -runs 10
//	rca -all
//	rca -inject 'micro_mg_tend.ratio*=1.0001' -name RATIO
//	rca -inject 'aero_run.wsub:0.20=>2.00' -inject prng=mt -name WSUB+MT
//	rca -scenario twobugs.json
//	rca -table1 -aux 100 -topk 20
//	rca -search minflip -pool 'micro_mg_tend.tlat*=1.00015' -pool 'micro_mg_tend.pre*=1.0003'
//	rca -list
//
// With -server, rca becomes a thin client of an rcad daemon: the
// scenario description is shipped as JSON and the daemon's shared
// Session does the work (corpus sizing then lives server-side):
//
//	rca -server http://localhost:8080 -experiment GOFFGRATCH
//	rca -server http://localhost:8080 -all
//	rca -server http://localhost:8080 -search minflip -pool 'prng=mt' -pool 'fma=all'
//
// -search runs a branch-and-bound scenario search over the -pool
// candidates (objectives: minflip, maxdelta, rank) instead of a single
// investigation; -experiment/-inject/-scenario then name the base
// scenario the subsets are layered onto (default: clean).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/fault"
)

// defaultFaultSeed mirrors fault.FromEnv's seed resolution so the
// -fault-seed flag's default reflects RCAD_FAULT_SEED.
func defaultFaultSeed() uint64 {
	if s := os.Getenv("RCAD_FAULT_SEED"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			return v
		}
	}
	return 1
}

// injectFlags collects repeated -inject values.
type injectFlags []string

func (f *injectFlags) String() string     { return strings.Join(*f, "; ") }
func (f *injectFlags) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var injects, pool injectFlags
	var (
		search    = flag.String("search", "", "scenario search objective: minflip | maxdelta | rank (requires -pool)")
		threshold = flag.Float64("threshold", 0, "minflip verdict threshold (0 = engine default 0.5)")
		maxSubset = flag.Int("maxsubset", 0, "search subset size cap (0 = objective default)")
		name      = flag.String("experiment", "", "prewired experiment name (see -list)")
		scName    = flag.String("name", "CUSTOM", "scenario name for -inject runs")
		scFile    = flag.String("scenario", "", "JSON scenario definition file")
		camOnly   = flag.Bool("camonly", true, "restrict the slice to CAM modules (-inject runs)")
		selectK   = flag.Int("selectk", 5, "lasso target support (-inject runs)")
		list      = flag.Bool("list", false, "list experiments and exit")
		all       = flag.Bool("all", false, "run all six §6 experiments concurrently")
		aux       = flag.Int("aux", 100, "auxiliary module count (corpus scale)")
		seed      = flag.Uint64("seed", 1, "corpus structure seed")
		ensemble  = flag.Int("ensemble", 40, "ensemble size")
		runs      = flag.Int("runs", 10, "experimental run count")
		sampler   = flag.String("sampler", "value", "sampler: value | reach")
		table1    = flag.Bool("table1", false, "run the Table 1 selective-FMA study instead")
		topk      = flag.Int("topk", 50, "modules to disable per Table 1 strategy")
		dot       = flag.String("dot", "", "write the induced subgraph (Graphviz) to this file")
		graded    = flag.Bool("magnitudes", false, "use graded (magnitude-ranked) sampling (§6.3 extension)")
		parallel  = flag.Int("parallel", 0, "worker pool per investigation: ensemble members and graph kernels (0 = GOMAXPROCS); results are identical at every setting")
		server    = flag.String("server", "", "rcad base URL: run scenarios on a daemon instead of in-process (corpus/ensemble sizing then comes from the daemon's flags)")
		storeDir  = flag.String("store", "", "artifact store directory: persist -search verdicts and incumbents so later searches (and rcad daemons) reuse them")
		faults    = flag.String("faults", os.Getenv("RCAD_FAULTS"), "deterministic fault-injection spec for -store I/O, e.g. 'artifact.put:eio@0.1' (default $RCAD_FAULTS)")
		faultSd   = flag.Uint64("fault-seed", defaultFaultSeed(), "fault-injection seed: same spec + seed replays the same fault sequence (default $RCAD_FAULT_SEED or 1)")
	)
	flag.Var(&injects, "inject",
		"injection (repeatable): sub.var*=F | sub.var:OLD=>NEW | prng=mt | fma=all|m1,m2 | param:NAME=V")
	flag.Var(&pool, "pool",
		"search candidate injection (repeatable, same grammar as -inject); used with -search")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *server != "" {
		if bad := unforwardable(set); len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "rca: -server cannot forward -%s (they configure an in-process run)\n",
				strings.Join(bad, ", -"))
			os.Exit(2)
		}
	}
	if name, needs, ok := inert(set); ok {
		fmt.Fprintf(os.Stderr, "rca: -%s has no effect without -%s\n", name, needs)
		os.Exit(2)
	}

	if *faults != "" {
		plane, err := fault.Parse(*faults, *faultSd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rca:", err)
			os.Exit(2)
		}
		fault.SetGlobal(plane)
	}

	if *list {
		fmt.Println("experiments (§6):")
		for _, s := range rca.Experiments() {
			fmt.Printf("  %-12s %s\n", s.Name(), injectionIDs(s))
		}
		fmt.Println("supplement (§8.2, Figure 15):")
		for _, s := range rca.SupplementExperiments() {
			fmt.Printf("  %-12s %s\n", s.Name(), injectionIDs(s))
		}
		fmt.Println("\ncustom scenarios: -inject (repeatable) or -scenario FILE.json")
		return
	}

	// Ctrl-C cancels between pipeline checkpoints; the exit path
	// reports ErrCanceled instead of tearing the process down mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *server != "" {
		c := newClient(*server)
		var err error
		switch {
		case *table1:
			// Sizing lives server-side: forward only the parameters
			// the user set explicitly, so a bare `-table1` reuses the
			// daemon's cached ensemble instead of forcing the client
			// defaults onto it.
			var e, r, k int
			if set["ensemble"] {
				e = *ensemble
			}
			if set["runs"] {
				r = *runs
			}
			if set["topk"] {
				k = *topk
			}
			err = runRemoteTable1(ctx, c, e, r, k)
		case *search != "":
			var req *rca.SearchRequest
			if req, err = buildSearchRequest(*search, pool, *threshold, *maxSubset,
				*name, *scFile, injects, *scName, *camOnly, *selectK); err != nil {
				fmt.Fprintln(os.Stderr, "rca:", err)
				os.Exit(2)
			}
			err = runRemoteSearch(ctx, c, req)
		case *all:
			err = runRemoteAll(ctx, c, rca.Experiments())
		default:
			var sc rca.Scenario
			if sc, err = resolveScenario(*name, *scFile, injects, *scName, *camOnly, *selectK); err != nil {
				fmt.Fprintln(os.Stderr, "rca:", err)
				os.Exit(2)
			}
			err = runRemote(ctx, c, sc)
		}
		if err != nil {
			fail(err)
		}
		return
	}

	// Validate the sampler up front: a typo should fail here, not ten
	// minutes into an ensemble run.
	var strategy rca.Sampler
	switch *sampler {
	case "value":
		strategy = rca.ValueSampling(0)
		if *graded {
			strategy = rca.GradedSampling()
		}
	case "reach":
		if *graded {
			fmt.Fprintln(os.Stderr, "rca: -magnitudes requires -sampler value")
			os.Exit(2)
		}
		strategy = rca.ReachSampling()
	default:
		fmt.Fprintf(os.Stderr, "rca: invalid -sampler %q (valid: value, reach)\n", *sampler)
		os.Exit(2)
	}

	ccfg := rca.DefaultCorpus()
	ccfg.AuxModules = *aux
	ccfg.Seed = *seed

	opts := []rca.Option{
		rca.WithEnsembleSize(*ensemble),
		rca.WithExpSize(*runs),
		rca.WithSampler(strategy),
	}
	if *parallel > 0 {
		opts = append(opts, rca.WithParallelism(*parallel))
	}
	if *storeDir != "" {
		store, err := rca.OpenArtifactStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rca:", err)
			os.Exit(2)
		}
		opts = append(opts, rca.WithArtifacts(store))
	}
	session := rca.NewSession(ccfg, opts...)

	switch {
	case *table1:
		rows, err := session.Table1(ctx, rca.Table1Setup{
			EnsembleSize: *ensemble,
			ExpSize:      *runs,
			TopK:         *topk,
		})
		if err != nil {
			fail(err)
		}
		fmt.Print(rca.FormatTable1(rows))

	case *search != "":
		req, err := buildSearchRequest(*search, pool, *threshold, *maxSubset,
			*name, *scFile, injects, *scName, *camOnly, *selectK)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rca:", err)
			os.Exit(2)
		}
		sopts := req.Options()
		if *parallel > 0 {
			sopts.Parallelism = *parallel
		}
		res, err := rca.Search(ctx, session, sopts)
		if err != nil {
			fail(err)
		}
		fmt.Print(rca.FormatSearchResult(res))

	case *all:
		outs, err := session.RunAll(ctx, rca.Experiments())
		if err != nil {
			fail(err)
		}
		located := 0
		for _, out := range outs {
			fmt.Println("================================================================")
			fmt.Print(rca.FormatOutcome(out))
			if out.BugLocated {
				located++
			}
		}
		fmt.Println("================================================================")
		fmt.Printf("located %d/%d injected defects\n", located, len(outs))

	default:
		sc, err := resolveScenario(*name, *scFile, injects, *scName, *camOnly, *selectK)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rca:", err)
			os.Exit(2)
		}
		out, err := session.Run(ctx, sc)
		if err != nil {
			fail(err)
		}
		fmt.Print(rca.FormatOutcome(out))
		if *dot != "" {
			f, err := os.Create(*dot)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			if err := out.WriteSliceDot(f); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *dot)
		}
	}
}

// serverIgnored lists the flags that only configure an in-process run:
// a -server client cannot forward them to the daemon, so setting one
// would otherwise be silently ignored.
var serverIgnored = []string{"dot", "sampler", "magnitudes", "parallel", "store"}

// unforwardable returns, in serverIgnored order, the explicitly set
// flags (set holds flag.Visit's names) a -server run would ignore.
func unforwardable(set map[string]bool) []string {
	var bad []string
	for _, name := range serverIgnored {
		if set[name] {
			bad = append(bad, name)
		}
	}
	return bad
}

// flagNeeds pairs a flag with the flag it has no effect without:
// -store persists only -search verdicts and incumbents, and -faults
// injects faults only into -store I/O.
var flagNeeds = [][2]string{{"store", "search"}, {"faults", "store"}}

// inert reports the first explicitly set flag (set holds flag.Visit's
// names) whose required flag is unset, and the flag it needs. A -faults
// spec that comes from $RCAD_FAULTS alone is not refused: the variable
// may be exported for an rcad daemon in the same shell.
func inert(set map[string]bool) (name, needs string, ok bool) {
	for _, p := range flagNeeds {
		if set[p[0]] && !set[p[1]] {
			return p[0], p[1], true
		}
	}
	return "", "", false
}

// resolveScenario picks the investigation: -scenario JSON wins, then
// -inject composition, then a prewired experiment name (defaulting to
// GOFFGRATCH when nothing is given).
func resolveScenario(name, file string, injects []string, scName string,
	camOnly bool, selectK int) (rca.Scenario, error) {
	if file != "" {
		if name != "" || len(injects) > 0 {
			return nil, fmt.Errorf("-scenario excludes -experiment and -inject")
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return rca.ScenarioFromJSON(data)
	}
	if len(injects) > 0 {
		if name != "" {
			return nil, fmt.Errorf("-inject excludes -experiment (use one or the other)")
		}
		injs := make([]rca.Injection, 0, len(injects))
		for _, s := range injects {
			inj, err := rca.ParseInjection(s)
			if err != nil {
				return nil, err
			}
			injs = append(injs, inj)
		}
		return rca.NewScenario(scName,
			rca.ScenarioOptions{CAMOnly: camOnly, SelectK: selectK}, injs...), nil
	}
	if name == "" {
		name = "GOFFGRATCH"
	}
	for _, s := range rca.AllExperiments() {
		if strings.EqualFold(s.Name(), name) {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (try -list, or -inject for a custom scenario)", name)
}

// buildSearchRequest assembles the -search request: the objective, the
// -pool candidates, and (only when the user named one) a base scenario
// — a bare -search runs over the clean model.
func buildSearchRequest(objective string, pool []string, threshold float64, maxSubset int,
	name, file string, injects []string, scName string, camOnly bool, selectK int) (*rca.SearchRequest, error) {
	obj, err := rca.ParseSearchObjective(objective)
	if err != nil {
		return nil, err
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("-search requires at least one -pool injection")
	}
	req := &rca.SearchRequest{Objective: obj, Threshold: threshold, MaxSubset: maxSubset}
	for _, s := range pool {
		inj, err := rca.ParseInjection(s)
		if err != nil {
			return nil, fmt.Errorf("-pool %q: %w", s, err)
		}
		req.Pool = append(req.Pool, inj)
	}
	if name != "" || file != "" || len(injects) > 0 {
		base, err := resolveScenario(name, file, injects, scName, camOnly, selectK)
		if err != nil {
			return nil, err
		}
		req.Base = base
	}
	return req, nil
}

// injectionIDs renders a scenario's injection fingerprints for -list.
func injectionIDs(s rca.Scenario) string {
	var ids []string
	for _, inj := range s.Injections() {
		ids = append(ids, inj.ID())
	}
	if len(ids) == 0 {
		return "(no injections)"
	}
	return strings.Join(ids, " + ")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rca:", err)
	os.Exit(1)
}
