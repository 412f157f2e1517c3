package model

import (
	"math"
	"sync"
	"testing"

	"github.com/climate-rca/rca/internal/corpus"
	"github.com/climate-rca/rca/internal/ect"
	"github.com/climate-rca/rca/internal/stats"
)

func runnerFor(t *testing.T, cfg corpus.Config) *Runner {
	t.Helper()
	r, err := NewRunner(corpus.Generate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// memberRange returns the member ids offset..offset+n-1.
func memberRange(offset, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = offset + i
	}
	return ids
}

func TestModelRunsAndIsFinite(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 30, Seed: 2})
	res, err := r.Run(RunConfig{Member: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Means) < 25 {
		t.Fatalf("only %d outputs captured", len(res.Means))
	}
	for k, v := range res.Means {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("output %s = %v", k, v)
		}
	}
	// Physical sanity: T should stay near its initial range.
	if tm := res.Means["T"]; tm < 200 || tm > 350 {
		t.Fatalf("T mean = %v", tm)
	}
}

func TestDeterministicGivenMember(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 20, Seed: 2})
	a, err := r.Run(RunConfig{Member: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(RunConfig{Member: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Means {
		if a.Means[k] != b.Means[k] {
			t.Fatalf("nondeterministic output %s", k)
		}
	}
}

func TestEnsembleSpreadExistsAndIsSmall(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 20, Seed: 2})
	ens, err := r.RunBatchMeans(RunConfig{}, memberRange(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	spreadT := sampleOf(ens, "T")
	sd := stats.Std(spreadT)
	if sd == 0 {
		t.Fatal("no ensemble spread in T")
	}
	if sd/math.Abs(stats.Mean(spreadT)) > 1e-3 {
		t.Fatalf("T spread suspiciously large: sd=%v", sd)
	}
	// wsub must also vary (via the wpert perturbation).
	if stats.Std(sampleOf(ens, "WSUB")) == 0 {
		t.Fatal("no spread in WSUB")
	}
}

func sampleOf(runs []ect.RunOutput, key string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r[key]
	}
	return out
}

// TestECTShape is the calibration gate for the whole reproduction: the
// control passes the consistency test, and every experiment fails it
// (paper §6: all experiments produce UF-CAM-ECT failures).
func TestECTShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test is slow")
	}
	base := corpus.Config{AuxModules: 30, Seed: 2}
	r := runnerFor(t, base)
	ens, err := r.RunBatchMeans(RunConfig{}, memberRange(0, 40))
	if err != nil {
		t.Fatal(err)
	}
	test, err := ect.NewTest(ens, ect.Config{})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, runs []ect.RunOutput, wantFail bool) {
		t.Helper()
		rate := test.FailureRate(runs)
		if wantFail && rate < 0.8 {
			t.Errorf("%s: failure rate %.2f; want >= 0.8", name, rate)
		}
		if !wantFail && rate > 0.2 {
			t.Errorf("%s: failure rate %.2f; want <= 0.2", name, rate)
		}
	}

	// Control: fresh members with unseen perturbation seeds must pass.
	control, err := r.RunBatchMeans(RunConfig{}, memberRange(1000, 10))
	if err != nil {
		t.Fatal(err)
	}
	check("control", control, false)

	// RAND-MT: same source, Mersenne Twister PRNG.
	mt, err := r.RunBatchMeans(RunConfig{RNG: RNGMersenne}, memberRange(1000, 10))
	if err != nil {
		t.Fatal(err)
	}
	check("RAND-MT", mt, true)

	// AVX2: FMA enabled everywhere.
	fma, err := r.RunBatchMeans(RunConfig{FMA: func(string) bool { return true }}, memberRange(1000, 10))
	if err != nil {
		t.Fatal(err)
	}
	check("AVX2", fma, true)

	// Source bugs.
	clean := corpus.Generate(base)
	for _, bug := range []corpus.ReplaceInAssign{corpus.WsubPatch, corpus.GoffGratchPatch,
		corpus.Dyn3Patch, corpus.RandomIdxPatch} {
		bugged, err := corpus.Apply(clean, bug)
		if err != nil {
			t.Fatal(err)
		}
		br, err := NewRunner(bugged)
		if err != nil {
			t.Fatal(err)
		}
		runs, err := br.RunBatchMeans(RunConfig{}, memberRange(1000, 10))
		if err != nil {
			t.Fatal(err)
		}
		check(bug.ID(), runs, true)
	}
}

func TestTraceCoversSubprograms(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 15, Seed: 2})
	seen := map[string]bool{}
	_, err := r.Run(RunConfig{
		StopAfter: 2,
		Trace:     func(mod, sub string) { seen[mod+"::"+sub] = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cam_driver::cam_init", "cam_driver::cam_step",
		"micro_mg::micro_mg_tend", "dyn3::dyn3_hydro",
	} {
		if !seen[want] {
			t.Fatalf("trace missing %s (have %d entries)", want, len(seen))
		}
	}
	// Unused subprograms must not appear.
	for k := range seen {
		if k == "microp_aero::aero_unused" {
			t.Fatalf("unused subprogram traced: %s", k)
		}
	}
}

func TestKernelWatchCapturesMicroMG(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 10, Seed: 2})
	res, err := r.Run(RunConfig{KernelWatch: "micro_mg::micro_mg_tend"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"dum", "ratio", "tlat", "nctend", "qvlat", "nitend"} {
		if len(res.Kernel[v]) == 0 {
			t.Fatalf("kernel variable %s not captured", v)
		}
	}
}

func TestFMAChangesMicroMGKernel(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 10, Seed: 2})
	off, err := r.Run(RunConfig{KernelWatch: "micro_mg::micro_mg_tend"})
	if err != nil {
		t.Fatal(err)
	}
	on, err := r.Run(RunConfig{
		KernelWatch: "micro_mg::micro_mg_tend",
		FMA:         func(string) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	diff := stats.NormalizedRMSDiff(off.Kernel["tlat"], on.Kernel["tlat"])
	if !(diff > 1e-12) {
		t.Fatalf("tlat normalized RMS diff = %v; want > 1e-12", diff)
	}
}

func TestRunBatchMeansMatchesSolo(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 25, Seed: 4})
	members := []int{0, 1, 2, 3, 4, 5, 1000, 1001}
	batched, err := r.RunBatchMeans(RunConfig{}, members)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(members) {
		t.Fatalf("got %d outputs, want %d", len(batched), len(members))
	}
	for i, m := range members {
		solo, err := r.Run(RunConfig{Member: m})
		if err != nil {
			t.Fatal(err)
		}
		if len(batched[i]) != len(solo.Means) {
			t.Fatalf("member %d: %d outputs vs solo %d", m, len(batched[i]), len(solo.Means))
		}
		for k, v := range solo.Means {
			bv, ok := batched[i][k]
			if !ok {
				t.Fatalf("member %d: output %s missing from batch", m, k)
			}
			if math.Float64bits(bv) != math.Float64bits(v) {
				t.Fatalf("member %d output %s: batch %v solo %v", m, k, bv, v)
			}
		}
	}
}

func TestRunBatchMeansVariants(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 25, Seed: 4})
	cfgs := map[string]RunConfig{
		"mersenne":  {RNG: RNGMersenne},
		"stopafter": {StopAfter: 2},
		"fma":       {FMA: func(string) bool { return true }},
	}
	for name, cfg := range cfgs {
		members := []int{2, 7, 11}
		batched, err := r.RunBatchMeans(cfg, members)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, m := range members {
			c := cfg
			c.Member = m
			solo, err := r.Run(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for k, v := range solo.Means {
				if math.Float64bits(batched[i][k]) != math.Float64bits(v) {
					t.Fatalf("%s member %d output %s: batch %v solo %v", name, m, k, batched[i][k], v)
				}
			}
		}
	}
}

func TestRunBatchMeansTreeFallback(t *testing.T) {
	r, err := NewRunnerEngine(corpus.Generate(corpus.Config{AuxModules: 20, Seed: 2}), EngineTree)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := r.RunBatchMeans(RunConfig{}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range []int{0, 1} {
		solo, err := r.Run(RunConfig{Member: m})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range solo.Means {
			if math.Float64bits(batched[i][k]) != math.Float64bits(v) {
				t.Fatalf("member %d output %s differs under tree fallback", m, k)
			}
		}
	}
	if _, misses := r.CompileStats(); misses != 0 {
		t.Fatalf("tree-engine runner compiled %d bytecode programs", misses)
	}
}

// TestTraceSequenceMatchesTree pins the coverage trace the VM reports
// through RunConfig.Trace against the tree walker's: the same
// (module, subprogram) entries in the same order on a two-step
// coverage run, on the bench-sized corpus clean and with a catalog
// patch applied. Production coverage filtering runs on the VM alone,
// so this sequence is all it sees.
func TestTraceSequenceMatchesTree(t *testing.T) {
	clean := corpus.Generate(corpus.Config{AuxModules: 40, Seed: 2})
	gg, err := corpus.Apply(clean, corpus.GoffGratchPatch)
	if err != nil {
		t.Fatal(err)
	}
	trace := func(c *corpus.Corpus, kind EngineKind) []string {
		r, err := NewRunnerEngine(c, kind)
		if err != nil {
			t.Fatal(err)
		}
		var seq []string
		_, err = r.Run(RunConfig{
			StopAfter: 2,
			Trace:     func(mod, sub string) { seq = append(seq, mod+"::"+sub) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	for name, c := range map[string]*corpus.Corpus{"clean": clean, "GOFFGRATCH": gg} {
		vm, tree := trace(c, EngineBytecode), trace(c, EngineTree)
		if len(vm) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		if len(vm) != len(tree) {
			t.Fatalf("%s: VM traced %d entries, tree %d", name, len(vm), len(tree))
		}
		for i := range vm {
			if vm[i] != tree[i] {
				t.Fatalf("%s: entry %d: VM %s, tree %s", name, i, vm[i], tree[i])
			}
		}
	}
}

// TestRunResultsDetached pins that a Result's captures belong to its
// caller: later Runs of the same shape take the first Run's released
// VM from the shape's pool, and resetting and refilling that VM must
// leave the first Result's Outputs, Kernel and AllValues bit-identical
// to a copy taken when it returned.
func TestRunResultsDetached(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 10, Seed: 2})
	cfg := RunConfig{Member: 1, SnapshotAll: true, KernelWatch: "micro_mg::micro_mg_tend"}
	first, err := r.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clone := func(m map[string][]float64) map[string][]float64 {
		out := make(map[string][]float64, len(m))
		for k, v := range m {
			out[k] = append([]float64(nil), v...)
		}
		return out
	}
	want := map[string]map[string][]float64{
		"Outputs": clone(first.Outputs), "Kernel": clone(first.Kernel), "AllValues": clone(first.AllValues)}
	for name, m := range want {
		if len(m) == 0 {
			t.Fatalf("first run captured no %s", name)
		}
	}
	// sync.Pool may drop a released VM (the race detector does so at
	// random), so several runs give the reuse its chance.
	other := cfg
	other.Member, other.FMA = 2, func(string) bool { return true }
	for i := 0; i < 4; i++ {
		if _, err := r.Run(other); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]map[string][]float64{
		"Outputs": first.Outputs, "Kernel": first.Kernel, "AllValues": first.AllValues}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: %d entries after later runs, want %d", name, len(g), len(w))
		}
		for k, wv := range w {
			gv := g[k]
			if len(gv) != len(wv) {
				t.Fatalf("%s[%s]: length %d after later runs, want %d", name, k, len(gv), len(wv))
			}
			for i := range wv {
				if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
					t.Fatalf("%s[%s][%d] = %v after later runs, want %v", name, k, i, gv[i], wv[i])
				}
			}
		}
	}
}

// TestRunBatchMeansConcurrentReuse runs batches of one program from
// several goroutines at once, so released BatchVMs pass between them
// through the shape's pool, with configurations that alternate between
// FMA on and off. Every batch must repeat the means of a first,
// sequential run of its configuration bit for bit.
func TestRunBatchMeansConcurrentReuse(t *testing.T) {
	r := runnerFor(t, corpus.Config{AuxModules: 10, Seed: 4})
	cfgs := []RunConfig{{}, {FMA: func(string) bool { return true }}}
	sets := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	want := make([][][]ect.RunOutput, len(cfgs))
	for c, cfg := range cfgs {
		for _, set := range sets {
			out, err := r.RunBatchMeans(cfg, set)
			if err != nil {
				t.Fatal(err)
			}
			want[c] = append(want[c], out)
		}
	}
	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c, s := (g+i)%len(cfgs), g%len(sets)
				got, err := r.RunBatchMeans(cfgs[c], sets[s])
				if err != nil {
					t.Error(err)
					return
				}
				for l := range got {
					for k, v := range want[c][s][l] {
						if math.Float64bits(got[l][k]) != math.Float64bits(v) {
							t.Errorf("goroutine %d round %d lane %d output %s: %v, want %v", g, i, l, k, got[l][k], v)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
