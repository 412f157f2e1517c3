package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/artifact"
	"github.com/climate-rca/rca/internal/serve"
)

// storeSession builds a small session over an artifact store handle.
func storeSession(t *testing.T, store *rca.ArtifactStore) *rca.Session {
	t.Helper()
	return rca.NewSession(rca.CorpusConfig{AuxModules: 10, Seed: 5},
		rca.WithEnsembleSize(8), rca.WithExpSize(3), rca.WithArtifacts(store))
}

// TestWarmRestartE2E is the acceptance scenario: boot a daemon with
// -store, investigate GOFFGRATCH, shut the daemon down, boot a second
// daemon on the same directory, submit the same scenario — it must be
// served warm with ZERO pipeline executions and byte-identical
// FormatOutcome text. Before the resubmission, GET /v1/outcomes on the
// restarted daemon must already serve the cold run's outcome.
func TestWarmRestartE2E(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"experiment":"GOFFGRATCH"}`)

	boot := func(execs *atomic.Int64) (*serve.Server, *httptest.Server, *rca.ArtifactStore) {
		store, err := rca.OpenArtifactStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.New(serve.Config{
			Session:   storeSession(t, store),
			Artifacts: store,
			RunHook:   func(string) { execs.Add(1) },
		})
		return srv, httptest.NewServer(srv.Handler()), store
	}

	var coldExecs atomic.Int64
	srv1, ts1, _ := boot(&coldExecs)
	reply1, status, err := postJob(ts1.URL, body, true)
	if err != nil || status != http.StatusOK {
		t.Fatalf("cold submit: status %d, err %v", status, err)
	}
	if reply1.Outcome == nil || reply1.Outcome.Text == "" {
		t.Fatalf("cold outcome missing: %+v", reply1)
	}
	if coldExecs.Load() == 0 {
		t.Fatal("cold run executed nothing")
	}
	ts1.Close()
	srv1.Close()

	var warmExecs atomic.Int64
	srv2, ts2, store2 := boot(&warmExecs)
	defer srv2.Close()
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/v1/outcomes/" + reply1.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	var stored struct {
		Text string `json:"text"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&stored)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || derr != nil || stored.Text != reply1.Outcome.Text {
		t.Fatalf("GET /v1/outcomes after restart: status %d, decode %v, text match %v",
			resp.StatusCode, derr, stored.Text == reply1.Outcome.Text)
	}
	reply2, status, err := postJob(ts2.URL, body, true)
	if err != nil || status != http.StatusOK {
		t.Fatalf("warm submit: status %d, err %v", status, err)
	}
	if n := warmExecs.Load(); n != 0 {
		t.Fatalf("warm restart executed the pipeline %d times; want 0", n)
	}
	if reply2.Outcome == nil || reply2.Outcome.Text != reply1.Outcome.Text {
		t.Fatalf("warm outcome text not byte-identical to cold:\ncold:\n%s\nwarm:\n%s",
			reply1.Outcome.Text, outcomeText(reply2))
	}
	if reply2.Fingerprint != reply1.Fingerprint {
		t.Fatalf("fingerprints differ across restart: %s vs %s", reply1.Fingerprint, reply2.Fingerprint)
	}
	if fromStore := metricValue(t, ts2.URL, "rcad_jobs_from_store_total"); fromStore < 1 {
		t.Fatalf("rcad_jobs_from_store_total = %d; want >= 1", fromStore)
	}
	if hits := store2.Stats().Hits; hits == 0 {
		t.Fatal("warm daemon never hit the artifact store")
	}
	if v := metricValue(t, ts2.URL, "rcad_artifact_store_hits_total"); v < 1 {
		t.Fatalf("rcad_artifact_store_hits_total = %d; want >= 1", v)
	}
	if v := metricValue(t, ts2.URL, "rcad_artifact_store_bytes"); v <= 0 {
		t.Fatalf("rcad_artifact_store_bytes = %d; want > 0", v)
	}
}

func outcomeText(r *jobReply) string {
	if r.Outcome == nil {
		return "<nil>"
	}
	return r.Outcome.Text
}

// TestShutdownFlushesOutcomes pins the graceful-shutdown contract:
// once Close returns, every completed investigation is durable in the
// store (runFlight writes the outcome synchronously before the job
// completes).
func TestShutdownFlushesOutcomes(t *testing.T) {
	dir := t.TempDir()
	store, err := rca.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Session: storeSession(t, store), Artifacts: store})
	ts := httptest.NewServer(srv.Handler())
	reply, status, err := postJob(ts.URL, []byte(`{"experiment":"WSUBBUG"}`), true)
	if err != nil || status != http.StatusOK {
		t.Fatalf("submit: status %d, err %v", status, err)
	}
	ts.Close()
	srv.Close()

	// A completely fresh handle (as a restarted process would open)
	// must find the outcome blob.
	reopened, err := artifact.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get(artifact.ClassOutcome, reply.Fingerprint); !ok {
		t.Fatalf("outcome %s not durable after Close", reply.Fingerprint)
	}
}

// TestQueueEndpointsRequireStore: worker-mode HTTP endpoints answer
// 503 on a daemon without -store.
func TestQueueEndpointsRequireStore(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, err := http.Post(ts.URL+"/v1/queue", "application/json",
		strings.NewReader(`{"experiment":"WSUBBUG"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/queue without store: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/queue/xyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/queue/{id} without store: %d, want 503", resp.StatusCode)
	}
}

// queueStateReply mirrors the GET /v1/queue/{id} JSON.
type queueStateReply struct {
	ID     string `json:"id"`
	Done   bool   `json:"done"`
	Result *struct {
		Fingerprint string `json:"fingerprint"`
		State       string `json:"state"`
		Error       string `json:"error"`
	} `json:"result"`
}

// TestTwoWorkersSharedStore is the multi-worker acceptance scenario:
// two daemons (each its own Session, sharing one store directory)
// drain a 16-scenario catalog from the shared queue. Every scenario
// must execute exactly once across the pair, and every artifact —
// corpus, program, compiled metagraph — must be built exactly once
// across both processes (cross-process singleflight).
func TestTwoWorkersSharedStore(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// 16 scenarios: the full §6+§8 catalog plus eight parameter
	// perturbations. The param scenarios share the clean source build
	// (same sourceKey, distinct buildKeys), so exactly-once sharing is
	// exercised at every fingerprint layer.
	bodies := make([][]byte, 0, 16)
	for _, sc := range rca.AllExperiments() {
		body, err := rca.ScenarioToJSON(sc)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for i := 0; i < 8; i++ {
		bodies = append(bodies, fmt.Appendf(nil,
			`{"name":"TURB%d","inject":["param:turbcoef=0.0%d1"]}`, i, i))
	}

	peers := []string{"w1", "w2"}
	type worker struct {
		store *rca.ArtifactStore
		srv   *serve.Server
		execs atomic.Int64
		done  chan error
	}
	workers := make([]*worker, 2)
	for i := range workers {
		store, err := rca.OpenArtifactStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		w := &worker{store: store, done: make(chan error, 1)}
		w.srv = serve.New(serve.Config{
			Session:   storeSession(t, store),
			Artifacts: store,
			Workers:   2,
			RunHook:   func(string) { w.execs.Add(1) },
		})
		workers[i] = w
	}
	defer func() {
		for _, w := range workers {
			w.srv.Close()
		}
	}()

	// Both daemons enqueue the full catalog (Enqueue is idempotent by
	// fingerprint), as any peer may in production.
	ids := make([]string, 0, len(bodies))
	for i, body := range bodies {
		id, _, err := workers[i%2].srv.Enqueue(body)
		if err != nil {
			t.Fatalf("enqueue %s: %v", body, err)
		}
		ids = append(ids, id)
		if _, _, err := workers[(i+1)%2].srv.Enqueue(body); err != nil {
			t.Fatalf("duplicate enqueue: %v", err)
		}
	}
	distinct := map[string]bool{}
	for _, id := range ids {
		distinct[id] = true
	}
	if len(distinct) != len(bodies) {
		t.Fatalf("%d distinct fingerprints from %d scenarios", len(distinct), len(bodies))
	}

	for i, w := range workers {
		go func(i int, w *worker) {
			w.done <- w.srv.ServeQueue(ctx, peers[i], peers, 20*time.Millisecond)
		}(i, w)
	}

	// Wait until every queued job has a completion marker.
	q, err := workers[0].store.Queue()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for !q.IsDone(id) {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never completed (pending=%d)", id, q.Pending())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	cancel()
	for _, w := range workers {
		if err := <-w.done; err != context.Canceled {
			t.Fatalf("ServeQueue returned %v", err)
		}
	}

	// Every job finished as done, reachable through either daemon.
	ts := httptest.NewServer(workers[1].srv.Handler())
	defer ts.Close()
	for _, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/queue/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st queueStateReply
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Done || st.Result == nil {
			t.Fatalf("job %s not done: %+v", id, st)
		}
		if st.Result.State != "done" {
			t.Fatalf("job %s state %q (error %q); want done", id, st.Result.State, st.Result.Error)
		}
	}

	// Exactly-once execution across the pair.
	total := workers[0].execs.Load() + workers[1].execs.Load()
	if total != int64(len(bodies)) {
		t.Fatalf("pipeline executed %d times across both workers; want exactly %d",
			total, len(bodies))
	}

	// Exactly-once artifact builds across the pair: distinct sourceKeys
	// each build a corpus and a program, distinct buildKeys a compiled
	// metagraph — plus the clean control build both catalogs share.
	sources, builds := map[string]bool{}, map[string]bool{}
	keysSession := rca.NewSession(rca.CorpusConfig{AuxModules: 10, Seed: 5})
	for _, body := range bodies {
		sc, err := rca.ScenarioFromJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := keysSession.Keys(sc)
		if err != nil {
			t.Fatal(err)
		}
		sources[keys.Source] = true
		builds[keys.Build] = true
	}
	clean, err := keysSession.Keys(rca.NewScenario("CLEAN", rca.ScenarioOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	sources[clean.Source] = true // the control build
	want := uint64(2*len(sources) + len(builds))
	got := workers[0].store.Stats().Builds + workers[1].store.Stats().Builds
	if got != want {
		t.Fatalf("artifact builds across both workers = %d; want exactly %d (%d sources x2 + %d buildKeys)",
			got, want, len(sources), len(builds))
	}
}
