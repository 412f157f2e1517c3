package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/fault"
	"github.com/climate-rca/rca/internal/serve"
)

// installPlane arms a seeded global fault plane for one test.
func installPlane(t *testing.T, spec string, seed uint64) {
	t.Helper()
	p, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	fault.SetGlobal(p)
	t.Cleanup(func() { fault.SetGlobal(nil) })
}

// referenceTexts runs the catalog through a plain in-process session
// (no store, no faults) and returns the golden FormatOutcome bytes the
// chaos runs must reproduce exactly.
func referenceTexts(t *testing.T, scenarios []rca.Scenario) map[string]string {
	t.Helper()
	session := rca.NewSession(rca.CorpusConfig{AuxModules: 10, Seed: 5},
		rca.WithEnsembleSize(8), rca.WithExpSize(3))
	texts := make(map[string]string, len(scenarios))
	for _, sc := range scenarios {
		out, err := session.Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("reference run %s: %v", sc.Name(), err)
		}
		texts[sc.Name()] = rca.FormatOutcome(out)
	}
	return texts
}

// TestChaosEIOStormTwoWorkers is the flagship chaos scenario: two
// workers drain the §6+§8 catalog from a shared queue while a seeded
// plane fails 10% of blob writes, 5% of reads and 10% of done-marker
// writes. Every job must still finish as done (exactly-once-effective:
// duplicate executions allowed, lost jobs not), and every outcome's
// FormatOutcome bytes must be identical to a fault-free run.
func TestChaosEIOStormTwoWorkers(t *testing.T) {
	scenarios := rca.AllExperiments()
	reference := referenceTexts(t, scenarios)
	installPlane(t, "artifact.put:eio@0.1;artifact.get:eio@0.05;queue.done:eio@0.1", 42)

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	peers := []string{"w1", "w2"}
	servers := make([]*serve.Server, 2)
	doneCh := make([]chan error, 2)
	for i := range servers {
		store, err := rca.OpenArtifactStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = serve.New(serve.Config{
			Session:     storeSession(t, store),
			Artifacts:   store,
			Workers:     2,
			MaxAttempts: 6,
			RetryBase:   10 * time.Millisecond,
		})
		doneCh[i] = make(chan error, 1)
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	ids := make(map[string]string, len(scenarios)) // queue id → scenario name
	for i, sc := range scenarios {
		body, err := rca.ScenarioToJSON(sc)
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := servers[i%2].Enqueue(body)
		if err != nil {
			t.Fatalf("enqueue %s: %v", sc.Name(), err)
		}
		ids[id] = sc.Name()
	}
	for i, srv := range servers {
		go func(i int, srv *serve.Server) {
			doneCh[i] <- srv.ServeQueue(ctx, peers[i], peers, 20*time.Millisecond)
		}(i, srv)
	}

	ts := httptest.NewServer(servers[0].Handler())
	defer ts.Close()
	deadline := time.Now().Add(3 * time.Minute)
	for id, name := range ids {
		for {
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
			if st.Done {
				if st.Result == nil || st.Result.State != "done" {
					t.Fatalf("job %s (%s) finished %+v; want done", id, name, st)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s (%s) never completed under the EIO storm", id, name)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	cancel()
	for i := range servers {
		if err := <-doneCh[i]; err != context.Canceled {
			t.Fatalf("ServeQueue returned %v", err)
		}
	}

	if injected := metricValue(t, ts.URL, "rcad_fault_injected_total"); injected == 0 {
		t.Fatal("chaos run injected zero faults; the storm never happened")
	}

	// Disarm the plane and read every outcome back through the submit
	// path (disk → LRU promotion): bytes must match the golden run.
	fault.SetGlobal(nil)
	for _, name := range ids {
		var body []byte
		for _, sc := range scenarios {
			if sc.Name() == name {
				b, err := rca.ScenarioToJSON(sc)
				if err != nil {
					t.Fatal(err)
				}
				body = b
			}
		}
		reply, status, err := postJob(ts.URL, body, true)
		if err != nil || status != http.StatusOK {
			t.Fatalf("readback %s: status %d, err %v", name, status, err)
		}
		if reply.Outcome == nil || reply.Outcome.Text != reference[name] {
			t.Fatalf("outcome for %s diverged from the fault-free run:\nchaos:\n%s\ngolden:\n%s",
				name, outcomeText(reply), reference[name])
		}
	}
}

// TestChaosBlobCorruption submits concurrently while half of all blob
// writes are torn by a one-byte flip, then resubmits every scenario.
// The resubmissions read the stored outcomes back: integrity-checked
// reads must detect every tampered blob (delete → miss → re-execute),
// so every text stays bit-identical to the fault-free golden run, and
// seed 7's plane tears at least one outcome, so the second pass runs
// at least one investigation again.
func TestChaosBlobCorruption(t *testing.T) {
	scenarios := rca.Experiments()[:4]
	reference := referenceTexts(t, scenarios)
	installPlane(t, "artifact.put:corrupt@0.5", 7)

	store, err := rca.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	srv := serve.New(serve.Config{Session: storeSession(t, store), Artifacts: store, Workers: 2,
		RunHook: func(string) { execs.Add(1) }})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make(map[string][]byte, len(scenarios))
	for _, sc := range scenarios {
		body, err := rca.ScenarioToJSON(sc)
		if err != nil {
			t.Fatal(err)
		}
		bodies[sc.Name()] = body
	}
	var firstPass int64
	for pass := 1; pass <= 2; pass++ {
		var wg sync.WaitGroup
		errs := make(chan error, len(bodies))
		for name, body := range bodies {
			wg.Add(1)
			go func(name string, body []byte) {
				defer wg.Done()
				reply, status, err := postJob(ts.URL, body, true)
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("pass %d: %s: status %d, err %v", pass, name, status, err)
					return
				}
				if reply.Outcome == nil || reply.Outcome.Text != reference[name] {
					errs <- fmt.Errorf("pass %d: %s: outcome diverged under blob corruption", pass, name)
				}
			}(name, body)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if pass == 1 {
			firstPass = execs.Load()
		}
	}
	if firstPass != int64(len(bodies)) {
		t.Errorf("first pass executed %d investigations; want %d", firstPass, len(bodies))
	}
	if execs.Load() == firstPass {
		t.Error("no stored outcome was torn and read back; the resubmissions re-executed nothing")
	}
}

// TestDeadLetterSurfacesViaJobsAPI: a job whose every execution hits
// an injected worker.exec fault exhausts its attempt budget in the
// flight's retry loop — exactly MaxAttempts executions, the queue adds
// none — lands in queue/failed, and surfaces as a terminal failed job
// with its structured error and attempt count through GET
// /v1/jobs/{id} and GET /v1/queue/{id}, plus the dead-letter and
// retry counters.
func TestDeadLetterSurfacesViaJobsAPI(t *testing.T) {
	installPlane(t, "worker.exec:eio", 1)
	store, err := rca.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{
		Session:     storeSession(t, store),
		Artifacts:   store,
		MaxAttempts: 2,
		RetryBase:   5 * time.Millisecond,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, _, err := srv.Enqueue([]byte(`{"experiment":"WSUBBUG"}`))
	if err != nil {
		t.Fatal(err)
	}
	drainUntilFailed(t, srv, store, id)

	// GET /v1/jobs/{id} answers for the dead-lettered id even though it
	// never entered this daemon's in-process registry under that name.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var jr struct {
		State    string `json:"state"`
		Error    string `json:"error"`
		Attempts int    `json:"attempts"`
	}
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s: status %d, err %v", id, resp.StatusCode, err)
	}
	if jr.State != "failed" || jr.Error == "" || jr.Attempts != 2 {
		t.Fatalf("dead-lettered job rendered %+v; want failed with error and attempts=2", jr)
	}
	if !strings.Contains(jr.Error, "injected") {
		t.Fatalf("dead-letter error %q does not carry the injected cause", jr.Error)
	}

	// The queue-status view agrees.
	resp, err = http.Get(ts.URL + "/v1/queue/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var qs struct {
		Done   bool `json:"done"`
		Failed *struct {
			Error    string `json:"error"`
			Attempts int    `json:"attempts"`
		} `json:"failed"`
	}
	err = json.NewDecoder(resp.Body).Decode(&qs)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !qs.Done || qs.Failed == nil || qs.Failed.Attempts != 2 {
		t.Fatalf("queue status %+v; want done with failure record", qs)
	}

	if v := metricValue(t, ts.URL, "rcad_jobs_dead_lettered_total"); v < 1 {
		t.Fatalf("rcad_jobs_dead_lettered_total = %d; want >= 1", v)
	}
	if v := metricValue(t, ts.URL, "rcad_job_retries_total"); v != 1 {
		t.Fatalf("rcad_job_retries_total = %d; want 1 (MaxAttempts-1)", v)
	}
	if v := metricValue(t, ts.URL, "rcad_fault_injected_total"); v != 2 {
		t.Fatalf("rcad_fault_injected_total = %d; want exactly MaxAttempts = 2 executions", v)
	}
}

// drainUntilFailed runs srv's queue worker until the job id is
// dead-lettered, then stops the worker and returns the record.
func drainUntilFailed(t *testing.T, srv *serve.Server, store *rca.ArtifactStore, id string) (errText string, attempts int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeQueue(ctx, "w1", nil, 10*time.Millisecond) }()
	defer func() { cancel(); <-done }()
	q, err := store.Queue()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if fj, failed := q.Failed(id); failed {
			return fj.Error, fj.Attempts
		}
		if q.IsDone(id) {
			t.Fatalf("job %s completed; want dead-lettered", id)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never dead-lettered (pending=%d)", id, q.Pending())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueuedScenarioFailureDeadLettersOnce: a queued scenario whose
// pipeline fails for a deterministic reason (an injection into a
// subprogram the corpus lacks) runs once and is dead-lettered with its
// cause; the queue does not run it again.
func TestQueuedScenarioFailureDeadLettersOnce(t *testing.T) {
	store, err := rca.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	srv := serve.New(serve.Config{
		Session:     storeSession(t, store),
		Artifacts:   store,
		MaxAttempts: 3,
		RunHook:     func(string) { execs.Add(1) },
	})
	defer srv.Close()

	id, _, err := srv.Enqueue([]byte(`{"name":"NOSUCH","inject":["nosuch_sub.x*=1.1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	cause, attempts := drainUntilFailed(t, srv, store, id)
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d executions; want 1", n)
	}
	if attempts != 1 || !strings.Contains(cause, "unknown subprogram") {
		t.Fatalf("dead letter = (%q, attempts %d); want the unknown-subprogram cause after 1 attempt", cause, attempts)
	}
}

// TestQueuedSearchFailureDeadLettersOnce: the same deterministic
// failure as a search candidate fails the queued search once, and the
// search is dead-lettered with its cause instead of re-run.
func TestQueuedSearchFailureDeadLettersOnce(t *testing.T) {
	store, err := rca.OpenArtifactStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{
		Session:     storeSession(t, store),
		Artifacts:   store,
		MaxAttempts: 3,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id, _, err := srv.Enqueue([]byte(`{"search": {"objective": "maxdelta", "pool": [
		{"kind":"scale","module":"micro_mg","subprogram":"micro_mg_tend","var":"tlat","factor":1.00015},
		{"kind":"scale","module":"nosuch","subprogram":"nosuch_sub","var":"x","factor":1.1}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	cause, attempts := drainUntilFailed(t, srv, store, id)
	if n := metricValue(t, ts.URL, "rcad_searches_started_total"); n != 1 {
		t.Fatalf("%d search executions; want 1", n)
	}
	if attempts != 1 || !strings.Contains(cause, "unknown subprogram") {
		t.Fatalf("dead letter = (%q, attempts %d); want the unknown-subprogram cause after 1 attempt", cause, attempts)
	}
}

// TestJobTimeoutFailsAttempt: a sleep fault longer than -job-timeout
// turns the attempt into ErrJobTimeout; with a budget of one attempt
// the job fails with a deadline error rather than hanging.
func TestJobTimeoutFailsAttempt(t *testing.T) {
	installPlane(t, "worker.exec:sleep@ms=250", 1)
	_, ts := newTestServer(t, serve.Config{
		JobTimeout:  50 * time.Millisecond,
		MaxAttempts: 1,
	})
	reply, status, err := postJob(ts.URL, []byte(`{"experiment":"WSUBBUG"}`), true)
	if err != nil || status != http.StatusOK {
		t.Fatalf("submit: status %d, err %v", status, err)
	}
	if reply.State != "failed" {
		t.Fatalf("state = %q; want failed", reply.State)
	}
	if !strings.Contains(reply.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", reply.Error)
	}
}

// TestShutdownReleasesLease pins the graceful-shutdown contract for
// worker mode: canceling ServeQueue mid-job releases the queue lease
// immediately (no peer waits out the stale timeout) and leaves the job
// pending for a survivor.
func TestShutdownReleasesLease(t *testing.T) {
	dir := t.TempDir()
	store, err := rca.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	srv := serve.New(serve.Config{
		Session:   storeSession(t, store),
		Artifacts: store,
		RunHook:   func(string) { entered <- struct{}{}; <-gate },
	})

	id, _, err := srv.Enqueue([]byte(`{"experiment":"GOFFGRATCH"}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeQueue(ctx, "w1", nil, 10*time.Millisecond) }()
	<-entered // the job is claimed and executing

	leases := filepath.Join(dir, "queue", "leases")
	if entries, _ := os.ReadDir(leases); len(entries) != 1 {
		t.Fatalf("%d lease files while running; want 1", len(entries))
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("ServeQueue returned %v", err)
	}
	if entries, _ := os.ReadDir(leases); len(entries) != 0 {
		t.Fatalf("%d lease files after graceful shutdown; want 0 (lease must be released, not left to go stale)", len(entries))
	}
	q, err := store.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if q.Pending() != 1 || q.IsDone(id) {
		t.Fatalf("job after shutdown: pending=%d done=%v; want retained for a surviving worker", q.Pending(), q.IsDone(id))
	}
	close(gate)
	srv.Close()
}

// TestDegradedModeUnwritableStoreDir is the acceptance criterion: a
// daemon pointed at an uncreatable store directory (a regular file
// blocks the path — chmod is useless when tests run as root) must
// serve jobs in degraded mode with bit-identical results, report
// degraded on /healthz and raise the rcad_store_degraded gauge.
func TestDegradedModeUnwritableStoreDir(t *testing.T) {
	scenarios := rca.Experiments()[:1]
	reference := referenceTexts(t, scenarios)

	base := t.TempDir()
	blocker := filepath.Join(base, "blocker")
	if err := os.WriteFile(blocker, []byte("file, not dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := rca.OpenArtifactStore(filepath.Join(blocker, "store"))
	if err != nil {
		t.Fatalf("degraded open must not error: %v", err)
	}
	if !store.Degraded() {
		t.Fatal("store over an unusable directory opened healthy")
	}
	srv := serve.New(serve.Config{Session: storeSession(t, store), Artifacts: store})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := rca.ScenarioToJSON(scenarios[0])
	if err != nil {
		t.Fatal(err)
	}
	reply, status, err := postJob(ts.URL, body, true)
	if err != nil || status != http.StatusOK {
		t.Fatalf("submit on degraded store: status %d, err %v", status, err)
	}
	if reply.Outcome == nil || reply.Outcome.Text != reference[scenarios[0].Name()] {
		t.Fatalf("degraded-mode outcome diverged from the healthy run:\n%s", outcomeText(reply))
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK       bool `json:"ok"`
		Degraded bool `json:"degraded"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !health.OK || !health.Degraded {
		t.Fatalf("healthz = %+v; want ok and degraded", health)
	}
	if v := metricValue(t, ts.URL, "rcad_store_degraded"); v != 1 {
		t.Fatalf("rcad_store_degraded = %d; want 1", v)
	}
}

// TestRetryAfterScalesWithBacklog (satellite): the 503 Retry-After
// hint grows with queue depth instead of the historical constant "1".
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	defer close(gate)
	_, ts := newTestServer(t, serve.Config{
		QueueSize: 4,
		Workers:   1,
		RunHook:   func(string) { entered <- struct{}{}; <-gate },
	})
	scenario := func(i int) []byte {
		return fmt.Appendf(nil, `{"name":"ra%d","inject":["sub%d.v*=1.5"]}`, i, i)
	}
	if _, status, err := postJob(ts.URL, scenario(0), false); err != nil || status != http.StatusAccepted {
		t.Fatalf("first submit: status %d, err %v", status, err)
	}
	<-entered
	for i := 1; i <= 4; i++ { // fill the queue behind the gated worker
		if _, status, err := postJob(ts.URL, scenario(i), false); err != nil || status != http.StatusAccepted {
			t.Fatalf("fill submit %d: status %d, err %v", i, status, err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(string(scenario(5))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: status %d, want 503", resp.StatusCode)
	}
	// Four queued flights over one worker: 1 + 4/1 = 5 seconds.
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Fatalf("Retry-After = %q with a 4-deep queue and 1 worker; want \"5\"", ra)
	}
}
