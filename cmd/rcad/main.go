// Command rcad is the long-running root-cause-analysis daemon: one
// compile-once rca.Session per process behind an HTTP/JSON API. Many
// clients submit scenario descriptions; the service computes the
// expensive shared substeps — corpus builds, the control-ensemble ECT
// fingerprint, compiled metagraphs — at most once, deduplicates
// identical in-flight investigations (singleflight on the scenario
// fingerprints) and serves repeat submissions from its outcome store,
// a bounded in-memory tier by default. With -store DIR outcomes and
// build artifacts persist in a content-addressed on-disk store
// instead: a restarted daemon (or a second
// daemon on the same directory) serves previously investigated
// scenarios warm, without re-running the pipeline, and -worker-id
// turns the process into a queue worker draining jobs enqueued by any
// peer on the store. POST /v1/searches runs branch-and-bound scenario
// searches over injection pools (rca -search is the matching client
// mode); search requests also travel the shared queue, kind-tagged as
// {"search": {...}}, and workers publish incumbent bounds through the
// store so peers prune against them. See internal/serve for the API.
//
// Usage:
//
//	rcad -addr :8080 -aux 100 -ensemble 40 -runs 10
//	rcad -addr :8080 -store /var/lib/rcad/artifacts
//	rcad -faults 'artifact.put:eio@0.1;worker.exec:crash@after=2' -fault-seed 42
//	curl -X POST 'localhost:8080/v1/jobs?wait=1' -d '{"experiment":"GOFFGRATCH"}'
//	curl -X POST 'localhost:8080/v1/searches?wait=1' -d @search.json
//	curl 'localhost:8080/v1/table1?topk=20'
//	rca -server http://localhost:8080 -all
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	rca "github.com/climate-rca/rca"
	"github.com/climate-rca/rca/internal/fault"
	"github.com/climate-rca/rca/internal/serve"
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

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		aux      = flag.Int("aux", 100, "auxiliary module count (corpus scale)")
		seed     = flag.Uint64("seed", 1, "corpus structure seed")
		ensemble = flag.Int("ensemble", 40, "ensemble size")
		runs     = flag.Int("runs", 10, "experimental run count")
		sampler  = flag.String("sampler", "value", "sampler: value | reach | graded")
		parallel = flag.Int("parallel", 0, "worker pool per investigation (0 = GOMAXPROCS)")
		engine   = flag.String("engine", "bytecode", "execution engine: bytecode (compiled register VM, default) | tree (AST-walking oracle)")
		workers  = flag.Int("workers", 2, "concurrent pipeline executions")
		queue    = flag.Int("queue", 64, "bounded job-queue capacity")
		storeDir = flag.String("store", "", "artifact store directory: persist corpora, compiled programs, metagraphs and outcomes so restarts serve warm and concurrent daemons share work")
		storeMax = flag.Int64("store-max-bytes", 0, "artifact store size cap in bytes (0 = default 512 MiB); least-recently-used blobs are evicted beyond it")
		workerID = flag.String("worker-id", "", "drain the artifact store's shared job queue under this worker name (requires -store)")
		peersCSV = flag.String("worker-peers", "", "comma-separated worker names sharing the queue (affinity hashing); default just -worker-id")
		warm     = flag.Bool("warm", true, "precompute the control-ensemble fingerprint at startup")
		faults   = flag.String("faults", os.Getenv("RCAD_FAULTS"), "deterministic fault-injection spec, e.g. 'artifact.put:eio@0.1;worker.exec:crash@after=2' (default $RCAD_FAULTS; see DESIGN.md 'Failure model')")
		faultSd  = flag.Uint64("fault-seed", defaultFaultSeed(), "fault-injection seed: same spec + seed replays the same fault sequence (default $RCAD_FAULT_SEED or 1)")
		maxAtt   = flag.Int("max-attempts", 3, "attempt budget per job before it is dead-lettered (terminal failed state)")
		jobTO    = flag.Duration("job-timeout", 0, "per-job execution deadline; a timed-out attempt counts against -max-attempts (0 = none)")
	)
	flag.Parse()

	if *faults != "" {
		plane, err := fault.Parse(*faults, *faultSd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcad:", err)
			os.Exit(2)
		}
		fault.SetGlobal(plane)
		log.Printf("rcad: fault plane armed: %s (seed %d)", *faults, *faultSd)
	}

	var strategy rca.Sampler
	switch *sampler {
	case "value":
		strategy = rca.ValueSampling(0)
	case "reach":
		strategy = rca.ReachSampling()
	case "graded":
		strategy = rca.GradedSampling()
	default:
		fmt.Fprintf(os.Stderr, "rcad: invalid -sampler %q (valid: value, reach, graded)\n", *sampler)
		os.Exit(2)
	}

	engKind, err := rca.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcad:", err)
		os.Exit(2)
	}

	if *workerID != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "rcad: -worker-id requires -store")
		os.Exit(2)
	}

	var store *rca.ArtifactStore
	if *storeDir != "" {
		var sopts []rca.ArtifactStoreOption
		if *storeMax > 0 {
			sopts = append(sopts, rca.WithStoreMaxBytes(*storeMax))
		}
		store, err = rca.OpenArtifactStore(*storeDir, sopts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcad:", err)
			os.Exit(2)
		}
		if store.Degraded() {
			log.Printf("rcad: artifact store %s is unusable; serving degraded (in-memory pass-through, /healthz reports degraded:true)", *storeDir)
		}
	}

	ccfg := rca.DefaultCorpus()
	ccfg.AuxModules = *aux
	ccfg.Seed = *seed
	opts := []rca.Option{
		rca.WithEnsembleSize(*ensemble),
		rca.WithExpSize(*runs),
		rca.WithSampler(strategy),
		rca.WithEngine(engKind),
	}
	if *parallel > 0 {
		opts = append(opts, rca.WithParallelism(*parallel))
	}
	if store != nil {
		opts = append(opts, rca.WithArtifacts(store))
	}
	session := rca.NewSession(ccfg, opts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *warm {
		// Pay the control-ensemble cost before the first job instead
		// of inside it; a Ctrl-C during warmup still exits promptly.
		log.Printf("rcad: warming control-ensemble fingerprint (aux=%d, ensemble=%d)", *aux, *ensemble)
		start := time.Now()
		if _, err := session.Fingerprint(ctx); err != nil {
			if errors.Is(err, rca.ErrCanceled) {
				return
			}
			log.Fatalf("rcad: warmup: %v", err)
		}
		log.Printf("rcad: warm in %v", time.Since(start).Round(time.Millisecond))
	}

	svc := serve.New(serve.Config{
		Session:     session,
		QueueSize:   *queue,
		Workers:     *workers,
		Artifacts:   store,
		MaxAttempts: *maxAtt,
		JobTimeout:  *jobTO,
	})
	defer svc.Close()

	var workerDone chan struct{}
	if *workerID != "" {
		peers := []string{*workerID}
		if *peersCSV != "" {
			peers = strings.Split(*peersCSV, ",")
		}
		workerDone = make(chan struct{})
		go func() {
			defer close(workerDone)
			if err := svc.ServeQueue(ctx, *workerID, peers, 0); err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("rcad: queue worker: %v", err)
			}
		}()
		log.Printf("rcad: worker %q draining shared queue (peers=%v)", *workerID, peers)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("rcad: serving on %s (workers=%d, queue=%d, store=%q)", *addr, *workers, *queue, *storeDir)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("rcad: %v", err)
	}
	if workerDone != nil {
		// Join the queue worker before exiting: ServeQueue's unwind
		// releases any held lease, so a SIGTERM mid-job returns the job
		// to pending for a peer instead of leaving a lease to go stale.
		<-workerDone
		log.Printf("rcad: queue worker drained, leases released")
	}
	log.Printf("rcad: shut down")
}
