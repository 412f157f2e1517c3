package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/serve"
)

const (
	// serviceClients is the number of closed-loop HTTP clients, one
	// keep-alive connection each: one per core of the 2-core machine
	// the benchmark was calibrated on.
	serviceClients = 2
	// repeatFrac is the share of jobs that resubmit a scenario.
	repeatFrac = 0.3
	// serviceRound is how many jobs the clients send between barriers:
	// every job of a round completes before the next round starts, so a
	// repeat drawn from an earlier round's scenarios finds its outcome
	// stored and never joins a job still running.
	serviceRound = 40
	// serviceRSSJobs is how many jobs complete before max_rss_mb is
	// read. rcad's session keeps every scenario it runs, so its memory
	// grows with each fresh job; reading it after a fixed job count keeps
	// a faster daemon, which serves more jobs in a run, from reading as
	// a memory regression. Every 15-second calibration run served more.
	serviceRSSJobs = 150
)

// The ensemble parameters fresh scenarios perturb, each picked with equal
// probability, with their corpus defaults.
var serviceParams = []struct {
	name string
	def  float64
}{{"turbcoef", 0.01}, {"fmagain", 3000}, {"auxfmagain", 0.01}}

// serviceJob is one POST /v1/jobs submission.
type serviceJob struct {
	name string // scenario name; jobs with equal names submit the same scenario
	body []byte
}

func catalogJob(k int) serviceJob {
	name := rca.Experiments()[k].Name()
	body, _ := json.Marshal(map[string]string{"experiment": name})
	return serviceJob{name: name, body: body}
}

// serviceGen draws a seeded job sequence. Job i is a repeat with
// probability repeatFrac, drawn uniformly from the six catalog
// scenarios and the fresh scenarios of earlier rounds (those are
// complete: see serviceRound); otherwise it perturbs one ensemble
// parameter to default×U(0.5,1.5), a scenario no earlier job submitted.
type serviceGen struct {
	seed  uint64
	mu    sync.Mutex
	jobs  []serviceJob
	fresh []int // indices of fresh jobs, ascending
}

func (g *serviceGen) job(i int) serviceJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.jobs) <= i {
		g.jobs = append(g.jobs, g.draw(len(g.jobs)))
	}
	return g.jobs[i]
}

func (g *serviceGen) draw(i int) serviceJob {
	r := opRand(g.seed, i)
	if r.Float64() < repeatFrac {
		done := sort.SearchInts(g.fresh, i-i%serviceRound) // fresh jobs of earlier rounds
		catalog := len(rca.Experiments())
		k := r.IntN(catalog + done)
		if k < catalog {
			return catalogJob(k)
		}
		return g.jobs[g.fresh[k-catalog]]
	}
	p := serviceParams[r.IntN(len(serviceParams))]
	v, _ := strconv.ParseFloat(strconv.FormatFloat(p.def*(0.5+r.Float64()), 'g', 6, 64), 64)
	inj := "param:" + p.name + "=" + strconv.FormatFloat(v, 'g', -1, 64)
	body, _ := json.Marshal(map[string]any{"name": inj, "inject": []string{inj}})
	g.fresh = append(g.fresh, i)
	return serviceJob{name: inj, body: body}
}

// service is the service workload: one long-lived rcad — its HTTP
// handler behind an httptest server — on an artifact store in a
// temporary directory.
type service struct {
	gen     *serviceGen
	dir     string
	store   *rca.ArtifactStore
	srv     *serve.Server
	handler http.Handler
	ts      *httptest.Server
	client  *http.Client

	mu    sync.Mutex
	first map[string]string // scenario name -> digest of its first response
}

// startService sets up the service workload: it opens the store, boots
// rcad on a session warmed like rcad -warm and runs the six catalog
// scenarios through it, so later repeats of them are store hits.
func startService(ctx context.Context, seed uint64) (*harness, error) {
	dir, err := os.MkdirTemp("", "rcabench-store-")
	if err != nil {
		return nil, err
	}
	svc := &service{gen: &serviceGen{seed: seed}, dir: dir, first: map[string]string{}}
	if svc.store, err = rca.OpenArtifactStore(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := newSession(rca.WithArtifacts(svc.store))
	if _, err := s.Fingerprint(ctx); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("service: warm fingerprint: %w", err)
	}
	svc.srv = serve.New(serve.Config{Session: s, Artifacts: svc.store})
	svc.handler = svc.srv.Handler()
	svc.ts = httptest.NewServer(svc.handler)
	svc.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}}
	next := 0
	var failure atomic.Value
	closedLoop(serviceClients, &next, len(rca.Experiments()), func() bool { return false }, func(k int) {
		if rec := svc.submit(ctx, catalogJob(k), nil); rec.Err != "" {
			failure.Store(rec.Err)
		}
	})
	if msg := failure.Load(); msg != nil {
		svc.close()
		return nil, fmt.Errorf("service: seeding the catalog: %s", msg)
	}
	return &harness{
		clients: serviceClients,
		op: func(ctx context.Context, i int, t *tracer) opRecord {
			return svc.submit(ctx, svc.gen.job(i), t)
		},
		round:     serviceRound,
		rssOps:    serviceRSSJobs,
		counters:  svc.counters,
		layers:    serviceLayers,
		reference: svc.reference,
		refKey:    func(i int) int { return i },
		close:     svc.close,
	}, nil
}

func (svc *service) close() {
	svc.ts.Close()
	svc.client.CloseIdleConnections()
	svc.srv.Close()
	os.RemoveAll(svc.dir)
}

// counters reads rcad's /metrics counters and the artifact store's own.
func (svc *service) counters() map[string]float64 {
	m := scrape(svc.handler)
	st := svc.store.Stats()
	m["artifact.hits"] = float64(st.Hits)
	m["artifact.misses"] = float64(st.Misses)
	m["artifact.puts"] = float64(st.Puts)
	m["artifact.bytes"] = float64(st.Bytes)
	return m
}

// scrape reads rcad's /metrics page into a map from series name
// (without the rcad_ prefix and labels) to value.
func scrape(h http.Handler) map[string]float64 {
	m := make(map[string]float64)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, "{")
		name, _, _ = strings.Cut(name, " ")
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			m[strings.TrimPrefix(name, "rcad_")] = v
		}
	}
	return m
}

// jobResponse is the part of rcad's job JSON the workload reads.
type jobResponse struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Events []struct {
		Stage string    `json:"stage"`
		At    time.Time `json:"at"`
	} `json:"events"`
	Outcome *struct {
		Text string `json:"text"`
	} `json:"outcome"`
}

// submit posts one job and waits for its result (POST /v1/jobs?wait=1).
// Its counters come from the job's stage events: queue wait runs from
// the send to the first event, each stage from its event to the next,
// the last to the response.
func (svc *service) submit(ctx context.Context, job serviceJob, t *tracer) opRecord {
	rec := opRecord{Name: job.name}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, svc.ts.URL+"/v1/jobs?wait=1", bytes.NewReader(job.body))
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := svc.client.Do(req)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	var jr jobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	recv := time.Now()
	rec.Ms = ms(recv.Sub(sent))
	switch {
	case err != nil:
		rec.Err = "decode job: " + err.Error()
	case resp.StatusCode != http.StatusOK || jr.State != "done" || jr.Outcome == nil:
		rec.Err = fmt.Sprintf("job %s: HTTP %d, state %q: %s", job.name, resp.StatusCode, jr.State, jr.Error)
	}
	if rec.Err != "" {
		return rec
	}
	rec.Digest = digest([]byte(jr.Outcome.Text))
	svc.mu.Lock()
	if d, ok := svc.first[job.name]; !ok {
		svc.first[job.name] = rec.Digest
	} else if d != rec.Digest {
		rec.Err = "repeat of " + job.name + " returned different bytes than its first response"
	}
	svc.mu.Unlock()

	rec.Counts = map[string]float64{}
	if len(jr.Events) == 0 {
		rec.Counts["hit"] = 1
		return rec
	}
	sentW, recvW := sent.Round(0), recv.Round(0)
	rec.Counts["queue_wait_ms"] = ms(jr.Events[0].At.Sub(sentW))
	rec.Counts["exec_ms"] = ms(recvW.Sub(jr.Events[0].At))
	root := t.add("op", job.name, 0, t.at(sentW), t.at(recvW))
	t.add("serve.queue_wait", "", root, t.at(sentW), t.at(jr.Events[0].At))
	for k, ev := range jr.Events {
		end := recvW
		if k+1 < len(jr.Events) {
			end = jr.Events[k+1].At
		}
		rec.Counts["stage_"+ev.Stage+"_ms"] += ms(end.Sub(ev.At))
		t.add("serve.stage_"+ev.Stage, "", root, t.at(ev.At), t.at(end))
	}
	return rec
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// reference runs job i's scenario on a fresh session at parallelism 1.
func (svc *service) reference(ctx context.Context, i int) (string, error) {
	sc, err := rca.ScenarioFromJSON(svc.gen.job(i).body)
	if err != nil {
		return "", err
	}
	out, err := newSession(rca.WithParallelism(1)).Run(ctx, sc)
	if err != nil {
		return "", err
	}
	return digest([]byte(rca.FormatOutcome(out))), nil
}

// serviceLayers derives the service's layer metrics from job events,
// the daemons' /metrics counters and the artifact store's statistics.
func serviceLayers(recs []opRecord, _ []span, delta map[string]float64) map[string]float64 {
	m := make(map[string]float64)
	var executed []opRecord
	var hits []float64
	for _, r := range recs {
		switch {
		case r.Err != "":
		case r.Counts["hit"] == 1:
			hits = append(hits, r.Ms)
		default:
			executed = append(executed, r)
		}
	}
	n := float64(len(executed))
	m["serve.queue_wait_ms"] = ratio(sumCount(executed, "queue_wait_ms", nil), n)
	m["serve.exec_ms"] = ratio(sumCount(executed, "exec_ms", nil), n)
	for _, st := range rca.Stages() {
		m["serve.stage_"+string(st)+"_ms"] = ratio(sumCount(executed, "stage_"+string(st)+"_ms", nil), n)
	}
	m["serve.hit_ms"] = median(hits)

	jobs := delta["jobs_submitted_total"]
	execs := delta["pipeline_executions_total"]
	m["serve.store_hit_frac"] = ratio(delta["jobs_from_store_total"], jobs)
	m["serve.executions_per_job"] = ratio(execs, jobs)
	m["serve.retries"] = delta["job_retries_total"]
	m["lasso.fits"] = ratio(delta["lasso_fits_total"], jobs)
	m["lasso.iters"] = ratio(delta["lasso_fit_iterations_total"], jobs)
	m["lasso.us_per_iter"] = ratio(1e3*sumCount(executed, "stage_select_ms", nil), delta["lasso_fit_iterations_total"])
	hitsC, missesC := delta["compile_cache_hits_total"], delta["compile_cache_misses_total"]
	m["bytecode.compile_misses"] = ratio(missesC, jobs)
	m["bytecode.compile_hit_ratio"] = ratio(hitsC, hitsC+missesC)
	for _, k := range []string{"hits", "misses", "puts"} {
		m["artifact."+k] = ratio(delta["artifact."+k], jobs)
	}
	m["artifact.bytes_per_exec"] = ratio(delta["artifact.bytes"], execs)
	m["trace_overhead_frac"] = traceOverhead(recs)
	return m
}
