// Command rcabench is the repository's end-to-end benchmark. It drives
// the root-cause-analysis system only through its public entry points
// — rca.Session stage methods, rca.Search, and rcad's HTTP handler
// (serve.New(...).Handler()) behind httptest — on three workloads:
//
//	catalog  the paper's six §6 investigations, RunAll on a fresh session
//	search   maxdelta branch-and-bound over seeded injection pools
//	service  closed-loop HTTP jobs against rcad with an artifact store
//
// A run sets up, does one untimed cold op, then measures closed-loop
// ops for -seconds. It checks every output against committed digests
// (seeds 1 and 2) or an in-process sequential reference, prints each
// metric as "workload metric value unit", and ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}. It exits non-zero when
// any output check fails. -trace 1 runs the traced variant, which
// reports the per-layer metrics instead of the end-to-end ones.
//
// Usage, from the repository root:
//
//	bash bench/run.sh                      # every workload, untraced then traced
//	bash bench/run.sh -workload search -seed 3 -seconds 30 -trace 0
//	bash bench/run.sh -update bench/testdata
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type workload struct {
	name  string
	start func(ctx context.Context, seed uint64) (*harness, error)
}

var workloads = []workload{
	{"catalog", startCatalog},
	{"search", startSearch},
	{"service", startService},
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics a traced run reports. A layer the workload
// does not reach reads 0.
var perLayer = []metricDef{
	{"experiments.fingerprint_ms", "ms"},
	{"experiments.builds_ms", "ms"},
	{"experiments.verdict_ms", "ms"},
	{"experiments.select_ms", "ms"},
	{"experiments.compile_ms", "ms"},
	{"experiments.slice_ms", "ms"},
	{"experiments.refine_ms", "ms"},
	{"experiments.wait_ms", "ms"},
	{"experiments.attributed_frac", "ratio"},
	{"lasso.fits", "1/op"},
	{"lasso.iters", "1/op"},
	{"lasso.us_per_iter", "us"},
	{"bytecode.compile_misses", "1/op"},
	{"bytecode.compile_hit_ratio", "ratio"},
	{"search.evals", "1/op"},
	{"search.pruned", "1/op"},
	{"search.infeasible", "1/op"},
	{"search.prune_ratio", "ratio"},
	{"search.ms_per_eval", "ms"},
	{"search.node_builds_ms", "ms"},
	{"search.node_verdict_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.stage_verdict_ms", "ms"},
	{"serve.stage_select_ms", "ms"},
	{"serve.stage_compile_ms", "ms"},
	{"serve.stage_slice_ms", "ms"},
	{"serve.stage_refine_ms", "ms"},
	{"serve.hit_ms", "ms"},
	{"serve.store_hit_frac", "ratio"},
	{"serve.executions_per_job", "ratio"},
	{"serve.retries", "count"},
	{"artifact.hits", "1/op"},
	{"artifact.misses", "1/op"},
	{"artifact.puts", "1/op"},
	{"artifact.bytes_per_exec", "B"},
	{"trace_overhead_frac", "ratio"},
}

type config struct {
	seed     uint64
	measure  time.Duration // length of the timed phase
	trace    bool
	spansDir string
	jsonPath string
	// probes is how many cold child processes measure setup_s and
	// minOps the fewest ops a timed phase completes. The smoke test
	// lowers both and sets loose, which skips percentile's sample-count
	// check.
	probes int
	minOps int
	loose  bool
}

func main() {
	name := flag.String("workload", "", "workload: catalog, search or service (empty: every workload, each in a child process)")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: run the traced variant and report per-layer metrics")
	jsonPath := flag.String("json", "", "write raw samples, summaries and machine metadata to `FILE`")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "`DIR` traced runs write their spans to")
	updateDir := flag.String("update", "", "regenerate the digest files for seeds 1 and 2 into `DIR` and exit")
	probe := flag.Bool("setup-probe", false, "set up, run the first op, print \"ready\" and exit (setup_s measures child processes started this way)")
	flag.Parse()

	ctx := context.Background()
	cfg := config{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		spansDir: *spans, jsonPath: *jsonPath, probes: 15, minOps: 20}
	var selected []workload
	for _, w := range workloads {
		if *name == "" || w.name == *name {
			selected = append(selected, w)
		}
	}
	var err error
	switch {
	case len(selected) == 0:
		err = fmt.Errorf("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case *seconds < 1:
		err = fmt.Errorf("-seconds %d: want at least 1", *seconds)
	case *updateDir != "":
		var names []string
		for _, w := range selected {
			names = append(names, w.name)
		}
		err = update(ctx, *updateDir, names)
	case *name == "":
		err = runAll(cfg)
	case *probe:
		var h *harness
		if h, err = selected[0].start(ctx, cfg.seed); err == nil {
			fmt.Println("ready")
			h.close()
		}
	default:
		err = runOne(ctx, selected[0], cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcabench:", err)
		os.Exit(1)
	}
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// rawRun is the -json output of one run.
type rawRun struct {
	Workload  string     `json:"workload"`
	Seed      uint64     `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Trace     bool       `json:"trace"`
	Machine   machine    `json:"machine"`
	SetupS    []float64  `json:"setup_probes_s,omitempty"`
	WallS     float64    `json:"timed_wall_s"`
	CPUS      float64    `json:"timed_cpu_s"`
	Checked   int        `json:"ops_checked"`
	Latency   summary    `json:"latency_ms"`
	Traced    *summary   `json:"traced_latency_ms,omitempty"`
	Untraced  *summary   `json:"untraced_latency_ms,omitempty"`
	SpansFile string     `json:"spans_file,omitempty"`
	Result    result     `json:"result"`
	Ops       []opRecord `json:"ops"`
}

// runOne measures one workload and prints its metrics and result line.
func runOne(ctx context.Context, w workload, cfg config) error {
	raw, err := measure(ctx, w, cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%s %s %s %s\n", w.name, d.name, strconv.FormatFloat(raw.Result.Metrics[d.name].Value, 'g', -1, 64), d.unit)
	}
	res := raw.Result
	fmt.Printf("%s ops attempted=%d failed=%d checked=%d\n", w.name, res.Attempted, res.Failed, raw.Checked)
	if cfg.jsonPath != "" {
		if err := writeJSON(cfg.jsonPath, raw); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed or mis-checked (%d checked)", w.name, res.Failed, res.Attempted, raw.Checked)
	}
	return nil
}

// measure sets up one workload, runs its timed phase, checks the
// outputs and derives the metrics: the end-to-end ones, or with
// cfg.trace the per-layer ones.
func measure(ctx context.Context, w workload, cfg config) (*rawRun, error) {
	raw := &rawRun{Workload: w.name, Seed: cfg.seed, Seconds: cfg.measure.Seconds(), Trace: cfg.trace, Machine: describeMachine()}
	if !cfg.trace {
		var err error
		if raw.SetupS, err = measureSetup(ctx, w.name, cfg.seed, cfg.probes); err != nil {
			return nil, err
		}
	}
	h, err := w.start(ctx, cfg.seed)
	if err != nil {
		return nil, err
	}
	p := timedPhase(ctx, h, cfg)
	h.close()
	committed, err := loadDigests(w.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	if raw.Checked, err = verify(ctx, h, p.recs, committed, cfg.seed); err != nil {
		return nil, err
	}

	res := result{Attempted: len(p.recs), Metrics: map[string]metricValue{}}
	for _, r := range p.recs {
		if r.Err != "" {
			res.Failed++
			fmt.Fprintf(os.Stderr, "rcabench: %s op %d: %s\n", w.name, r.Index, r.Err)
		}
	}
	res.Correct = res.Failed == 0 && raw.Checked > 0
	lat := latencies(p.recs, nil)
	raw.WallS, raw.CPUS, raw.Latency = p.wall.Seconds(), p.cpu.Seconds(), summarize(lat)

	defs, values := endToEnd, map[string]float64{}
	if cfg.trace {
		defs, values = perLayer, h.layers(p.recs, p.spans, p.delta)
		tr, un := summarize(latencies(p.recs, traced)), summarize(latencies(p.recs, untraced))
		raw.Traced, raw.Untraced = &tr, &un
		if cfg.spansDir != "" {
			if raw.SpansFile, err = writeSpans(cfg.spansDir, fmt.Sprintf("%s_%d.jsonl", w.name, cfg.seed), p.spans); err != nil {
				return nil, err
			}
		}
	} else {
		p50, err := percentile(lat, 0.5)
		if cfg.loose {
			p50, err = median(lat), nil
		}
		if err != nil {
			return nil, err
		}
		values["p50_ms"] = p50
		values["setup_s"] = median(raw.SetupS)
		values["ops_per_s"] = float64(len(lat)) / p.wall.Seconds()
		values["cpu_ms_per_op"] = ms(p.cpu) / float64(len(p.recs))
		values["max_rss_mb"] = p.rssMB
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	raw.Result, raw.Ops = res, p.recs
	return raw, nil
}

// measureSetup starts n child processes one after another and times
// each from its start until it reports its first op complete.
func measureSetup(ctx context.Context, name string, seed uint64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for k := 0; k < n; k++ {
		cmd := exec.CommandContext(ctx, exe, "-setup-probe", "-workload", name, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		br := bufio.NewReader(stdout)
		line, rerr := br.ReadString('\n')
		elapsed := time.Since(start)
		_, _ = io.Copy(io.Discard, br) // drain so the child never blocks on a full pipe
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		if rerr != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("setup probe: got %q before exit", line)
		}
		setups = append(setups, elapsed.Seconds())
	}
	return setups, nil
}

// runAll runs every workload, untraced and then traced, each in its own
// child process, relaying their output. With -json it merges the
// children's raw outputs into one file.
func runAll(cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	merged := map[string]json.RawMessage{}
	var failed []string
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			args := []string{"-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.Itoa(int(cfg.measure / time.Second)), "-trace", strconv.Itoa(trace), "-spans", cfg.spansDir}
			var rawPath string
			if cfg.jsonPath != "" {
				f, err := os.CreateTemp("", "rcabench-*.json")
				if err != nil {
					return err
				}
				f.Close()
				rawPath = f.Name()
				args = append(args, "-json", rawPath)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			key := fmt.Sprintf("%s/trace=%d", w.name, trace)
			if err := cmd.Run(); err != nil {
				failed = append(failed, key)
			}
			if rawPath != "" {
				if data, err := os.ReadFile(rawPath); err == nil && len(data) > 0 {
					merged[key] = data
				}
				os.Remove(rawPath)
			}
		}
	}
	if cfg.jsonPath != "" {
		if err := writeJSON(cfg.jsonPath, merged); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
