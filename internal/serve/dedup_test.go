package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/serve"
)

// metricValue scrapes one counter/gauge from /metrics.
func metricValue(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindSubmatch(data)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, data)
	}
	n, _ := strconv.Atoi(string(m[1]))
	return n
}

// waitMetric polls a metric until it reaches want.
func waitMetric(t *testing.T, base, name string, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if got := metricValue(t, base, name); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s never reached %d", name, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDedupSingleExecution: 16 clients submitting the same scenario
// simultaneously share exactly one underlying pipeline execution
// (observed via the counting RunHook), and every client receives the
// same completed outcome. Run under -race in CI.
func TestDedupSingleExecution(t *testing.T) {
	var execs atomic.Int64
	gate := make(chan struct{})
	srv := serve.New(serve.Config{
		Session: rca.NewSession(e2eCorpus, e2eOptions()...),
		Workers: 4,
		RunHook: func(string) {
			execs.Add(1)
			<-gate // hold the execution open until every client is in
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := rca.ScenarioToJSON(rca.WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	replies := make([]*jobReply, clients)
	postErrs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			replies[c], _, postErrs[c] = postJob(ts.URL, body, true)
		}(c)
	}

	// All 16 must be registered (1 executing + 15 deduped) before the
	// pipeline is allowed to finish — otherwise a fast pipeline could
	// legitimately serve latecomers from the outcome store.
	waitMetric(t, ts.URL, "rcad_jobs_submitted_total", clients)
	if deduped := metricValue(t, ts.URL, "rcad_jobs_deduped_total"); deduped != clients-1 {
		t.Fatalf("deduped = %d, want %d", deduped, clients-1)
	}
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("underlying pipeline executions = %d, want exactly 1", got)
	}
	for c, reply := range replies {
		if postErrs[c] != nil {
			t.Fatalf("client %d: %v", c, postErrs[c])
		}
		if reply.State != "done" || reply.Outcome == nil {
			t.Fatalf("client %d: state %s, error %q", c, reply.State, reply.Error)
		}
		if reply.Outcome.Text != replies[0].Outcome.Text ||
			reply.Fingerprint != replies[0].Fingerprint {
			t.Fatalf("client %d received a different outcome", c)
		}
	}
}

// TestCancelSharedFlightSurvives: two clients share one in-flight
// execution; the first client's disconnect cancels only its own job —
// the execution keeps running for the second client and completes.
// Run under -race in CI.
func TestCancelSharedFlightSurvives(t *testing.T) {
	var execs atomic.Int64
	started := make(chan struct{})
	gate := make(chan struct{})
	srv := serve.New(serve.Config{
		Session: rca.NewSession(e2eCorpus, e2eOptions()...),
		Workers: 2,
		RunHook: func(string) {
			execs.Add(1)
			close(started)
			<-gate
		},
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := rca.ScenarioToJSON(rca.WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}

	// Client A: waiting submission on a cancellable request.
	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	aDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(actx, http.MethodPost,
			ts.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
		if err != nil {
			aDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		aDone <- err
		close(aDone)
	}()
	<-started // A's execution is running (and held open by the gate)

	// Client B joins the same in-flight execution.
	type postResult struct {
		reply *jobReply
		err   error
	}
	bReply := make(chan postResult, 1)
	go func() {
		reply, _, err := postJob(ts.URL, body, true)
		bReply <- postResult{reply, err}
	}()
	waitMetric(t, ts.URL, "rcad_jobs_deduped_total", 1)

	// A disconnects; the shared execution must survive for B.
	acancel()
	if err := <-aDone; err == nil {
		t.Fatal("client A's request should have failed with context canceled")
	}
	waitMetric(t, ts.URL, "rcad_jobs_canceled_total", 1)
	close(gate)

	res := <-bReply
	if res.err != nil {
		t.Fatal(res.err)
	}
	reply := res.reply
	if reply.State != "done" || reply.Outcome == nil {
		t.Fatalf("client B: state %s, error %q (shared execution was canceled by A's disconnect?)", reply.State, reply.Error)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}

	// The completed outcome is stored despite A's disconnect.
	resp, err := http.Get(ts.URL + "/v1/outcomes/" + reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("outcome store after shared completion: status %d", resp.StatusCode)
	}
}

// TestCancelLastSubscriberAbortsExecution: when every subscriber of a
// flight cancels, the underlying execution is aborted — unshared work
// is not run to completion for nobody.
func TestCancelLastSubscriberAbortsExecution(t *testing.T) {
	started := make(chan struct{})
	srv := serve.New(serve.Config{
		Session: rca.NewSession(e2eCorpus, e2eOptions()...),
		Workers: 1,
		RunHook: func(string) { close(started) },
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := rca.ScenarioToJSON(rca.GOFFGRATCH)
	if err != nil {
		t.Fatal(err)
	}
	// Submit without waiting, then cancel via DELETE once running.
	reply, status, err := postJob(ts.URL, body, false)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+reply.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The job reports canceled and the aborted execution stores no
	// outcome.
	var final jobReply
	getJSON(t, ts.URL+"/v1/jobs/"+reply.ID+"?wait=1", &final)
	if final.State != "canceled" {
		t.Fatalf("job state = %s, want canceled", final.State)
	}
	waitMetric(t, ts.URL, "rcad_flights_canceled_total", 1)
	out, err := http.Get(ts.URL + "/v1/outcomes/" + reply.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	out.Body.Close()
	if out.StatusCode != http.StatusNotFound {
		t.Fatalf("aborted execution stored an outcome (status %d)", out.StatusCode)
	}
}

// TestResubmitAfterLastSubscriberCancel: canceling the only job of a
// still-queued flight kills that flight — but a later identical
// submission must get a fresh execution, not be spuriously canceled by
// subscribing to the dead flight awaiting a worker.
func TestResubmitAfterLastSubscriberCancel(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv := serve.New(serve.Config{
		Session:   rca.NewSession(e2eCorpus, e2eOptions()...),
		Workers:   1,
		QueueSize: 4,
		RunHook:   func(string) { entered <- struct{}{}; <-gate },
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	blocker, err := rca.ScenarioToJSON(rca.RANDMT)
	if err != nil {
		t.Fatal(err)
	}
	body, err := rca.ScenarioToJSON(rca.WSUBBUG)
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single worker so later flights stay queued.
	if _, status, err := postJob(ts.URL, blocker, false); err != nil || status != http.StatusAccepted {
		t.Fatalf("blocker submit: status %d, err %v", status, err)
	}
	<-entered

	// Queue the scenario, then cancel its only job while queued.
	first, status, err := postJob(ts.URL, body, false)
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("first submit: status %d, err %v", status, err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Resubmit the identical scenario: it must not join the dead
	// flight.
	second, status, err := postJob(ts.URL, body, false)
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("resubmit: status %d, err %v", status, err)
	}
	close(gate)

	var final jobReply
	getJSON(t, ts.URL+"/v1/jobs/"+second.ID+"?wait=1", &final)
	if final.State != "done" || final.Outcome == nil {
		t.Fatalf("resubmitted job: state %s, error %q — joined the dead flight?", final.State, final.Error)
	}
	var firstFinal jobReply
	getJSON(t, ts.URL+"/v1/jobs/"+first.ID, &firstFinal)
	if firstFinal.State != "canceled" {
		t.Fatalf("canceled job state = %s, want canceled", firstFinal.State)
	}
}

// getJSON fetches and decodes a JSON endpoint.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
