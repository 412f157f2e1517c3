package serve_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/serve"
)

// newTestServer builds a small service for API-shape tests.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Session == nil {
		cfg.Session = rca.NewSession(rca.CorpusConfig{AuxModules: 10, Seed: 5},
			rca.WithEnsembleSize(8), rca.WithExpSize(3))
	}
	srv := serve.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts
}

func TestSubmitRejectsBadScenarios(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	cases := []struct {
		name, body string
	}{
		{"garbage", "not json"},
		{"missing name", `{"inject":["prng=mt"]}`},
		{"unknown experiment", `{"experiment":"NOPE"}`},
		{"experiment with inject", `{"experiment":"AVX2","inject":["prng=mt"]}`},
		{"bad injection", `{"name":"X","inject":["wat"]}`},
		{"bad patch kind", `{"name":"X","inject":[{"kind":"wat","subprogram":"s","var":"v"}]}`},
		{"conflicting injections", `{"name":"X","inject":["prng=mt","prng=mt"]}`},
		{"unknown parameter", `{"name":"X","inject":["param:bogus=1"]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reply, status, err := postJob(ts.URL, []byte(tc.body), false)
			if err != nil {
				t.Fatal(err)
			}
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (reply %+v)", status, reply)
			}
			if reply.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}
}

func TestQueueFullRejectsWith503(t *testing.T) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	defer close(gate)
	_, ts := newTestServer(t, serve.Config{
		QueueSize: 1,
		Workers:   1,
		RunHook:   func(string) { entered <- struct{}{}; <-gate },
	})

	scenario := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"name":"q%d","inject":["sub%d.v*=1.5"]}`, i, i))
	}
	// First submission occupies the worker (held by the gate)…
	if _, status, err := postJob(ts.URL, scenario(0), false); err != nil || status != http.StatusAccepted {
		t.Fatalf("first submit: status %d, err %v", status, err)
	}
	<-entered
	// …second fills the queue's single slot…
	if _, status, err := postJob(ts.URL, scenario(1), false); err != nil || status != http.StatusAccepted {
		t.Fatalf("second submit: status %d, err %v", status, err)
	}
	// …third bounces with 503 + Retry-After.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(scenario(2))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Identical resubmission of a queued scenario still dedups instead
	// of bouncing: backpressure applies to new work only.
	if _, status, err := postJob(ts.URL, scenario(1), false); err != nil || status != http.StatusAccepted {
		t.Fatalf("dedup submit during backpressure: status %d, err %v", status, err)
	}
}

func TestUnknownJobAndOutcome404(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	for _, path := range []string{"/v1/jobs/j-999999", "/v1/outcomes/deadbeef"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	for _, metric := range []string{
		"rcad_jobs_submitted_total", "rcad_jobs_deduped_total",
		"rcad_jobs_from_store_total", "rcad_pipeline_executions_total",
		"rcad_queue_depth", "rcad_artifact_store_mem_bytes", "rcad_flights_inflight",
		"rcad_compile_cache_hits_total", "rcad_compile_cache_misses_total",
		"rcad_program_rebinds_total", "rcad_metagraph_shares_total",
		"rcad_parse_subprogram_shares_total",
		"rcad_artifact_store_hits_total", "rcad_artifact_store_misses_total",
		"rcad_artifact_store_evictions_total", "rcad_artifact_store_bytes",
		"rcad_fault_injected_total", "rcad_job_retries_total",
		"rcad_jobs_dead_lettered_total", "rcad_store_degraded",
		"rcad_lasso_fits_total", "rcad_lasso_fit_iterations_total",
		"rcad_refine_memo_hits_total", "rcad_refine_memo_misses_total",
		"rcad_gc_cycles_total", "rcad_heap_alloc_bytes_total",
	} {
		metricValue(t, ts.URL, metric) // fails the test if absent
	}
	if metricValue(t, ts.URL, "rcad_heap_alloc_bytes_total") == 0 {
		t.Fatal("rcad_heap_alloc_bytes_total is 0 in a running process")
	}
	// No series carries a label: every sample line is a bare name and an
	// integer value.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`^rcad_[a-z_]+ -?[0-9]+$`)
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !sample.MatchString(line) {
			t.Fatalf("metrics line %q is not an unlabelled rcad_ sample:\n%s", line, body)
		}
	}
}

// TestMetricsCompileCacheCounts pins the compile-cache observability:
// after one executed job, the session has compiled at least one
// program (misses >= 1) and reused it across the scenario's
// integrations (hits > misses).
func TestMetricsCompileCacheCounts(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"experiment":"WSUBBUG"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status %d", resp.StatusCode)
	}
	misses := metricValue(t, ts.URL, "rcad_compile_cache_misses_total")
	hits := metricValue(t, ts.URL, "rcad_compile_cache_hits_total")
	if hits < 1 {
		t.Fatalf("compile cache hits = %d, want >= 1 (every integration after the first reuses the program)", hits)
	}
	// A process-global cache may serve this session's sources without a
	// fresh compile (misses can be 0), but reuse must dominate.
	if misses > hits {
		t.Fatalf("compile cache misses = %d > hits = %d: compiled programs not reused", misses, hits)
	}
}

// TestMetricsLassoCounts pins the lasso observability: after one
// executed job whose selection stage goes through the §3 lasso
// (GOFFGRATCH's first-step diff is inconclusive), the session has run
// at least one fit and its iterations are accounted.
func TestMetricsLassoCounts(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
		strings.NewReader(`{"experiment":"GOFFGRATCH"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job status %d", resp.StatusCode)
	}
	fits := metricValue(t, ts.URL, "rcad_lasso_fits_total")
	iters := metricValue(t, ts.URL, "rcad_lasso_fit_iterations_total")
	if fits < 1 {
		t.Fatalf("lasso fits = %d, want >= 1 (bisection probes the lambda path)", fits)
	}
	if iters < fits {
		t.Fatalf("lasso iterations = %d < fits = %d: iterations not accounted", iters, fits)
	}
}

func TestTable1BadParams(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/v1/table1?topk=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
