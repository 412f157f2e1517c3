package serve

import (
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"sync/atomic"

	"github.com/climate-rca/rca/internal/artifact"
)

// metrics are the service counters exposed at /metrics in the
// Prometheus text exposition format.
type metrics struct {
	jobsSubmitted   atomic.Int64 // accepted submissions (all paths)
	jobsDeduped     atomic.Int64 // submissions that joined an in-flight execution
	jobsFromStore   atomic.Int64 // submissions served whole from the outcome store
	jobsCompleted   atomic.Int64 // jobs finished with an outcome
	jobsFailed      atomic.Int64 // jobs finished with a pipeline error
	jobsCanceled    atomic.Int64 // jobs canceled by their client
	jobsRejected    atomic.Int64 // submissions rejected (queue full / shutdown)
	executions      atomic.Int64 // actual underlying pipeline executions
	flightsCanceled atomic.Int64 // executions aborted because every subscriber left
	jobRetries      atomic.Int64 // execution attempts retried after transient failures

	searchesStarted        atomic.Int64 // scenario searches accepted
	searchesCompleted      atomic.Int64 // searches finished with a result
	searchesFailed         atomic.Int64 // searches finished with an error
	searchesCanceled       atomic.Int64 // searches canceled by client or shutdown
	searchNodesExpanded    atomic.Int64 // branch-and-bound nodes evaluated
	searchNodesPruned      atomic.Int64 // subtrees cut by bound/incumbent tests
	searchIncumbentUpdates atomic.Int64 // best-known-solution improvements
}

// write renders the counters plus the gauges the server derives live,
// the session's compile-cache, lasso and refinement-memo counters and
// the runtime's GC cycle and heap allocation totals among them. No
// series carries a label.
func (m *metrics) write(w io.Writer, queueDepth, inflight int, ss sessionStats, as artifact.Stats, rs robustStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP rcad_%s %s\n# TYPE rcad_%s counter\nrcad_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP rcad_%s %s\n# TYPE rcad_%s gauge\nrcad_%s %d\n", name, help, name, name, v)
	}
	counter("jobs_submitted_total", "Accepted job submissions.", m.jobsSubmitted.Load())
	counter("jobs_deduped_total", "Submissions that joined an identical in-flight execution.", m.jobsDeduped.Load())
	counter("jobs_from_store_total", "Submissions served whole from the outcome store.", m.jobsFromStore.Load())
	counter("jobs_completed_total", "Jobs finished with an outcome.", m.jobsCompleted.Load())
	counter("jobs_failed_total", "Jobs finished with a pipeline error.", m.jobsFailed.Load())
	counter("jobs_canceled_total", "Jobs canceled by their client.", m.jobsCanceled.Load())
	counter("jobs_rejected_total", "Submissions rejected by backpressure or shutdown.", m.jobsRejected.Load())
	counter("pipeline_executions_total", "Underlying pipeline executions (post-dedup).", m.executions.Load())
	counter("flights_canceled_total", "Executions aborted because every subscriber left.", m.flightsCanceled.Load())
	counter("compile_cache_hits_total", "Integrations that reused a cached compiled program.", int64(ss.CompileHits))
	counter("compile_cache_misses_total", "Bytecode program compilations.", int64(ss.CompileMisses))
	counter("program_rebinds_total", "Compiled programs shared with a same-shape source tree and rebound to its initializer and literal values instead of compiled.", int64(ss.ProgramRebinds))
	counter("parse_subprogram_shares_total", "Parsed subprograms taken from the process-wide table of an identical earlier parse instead of kept from a fresh parse.", int64(ss.ParseShares))
	counter("metagraph_shares_total", "Compile-stage calls served by a metagraph another build fingerprint built (same program shape and coverage trace).", int64(ss.MetagraphShares))
	counter("lasso_fits_total", "Selection-stage lasso fits across the session.", int64(ss.LassoFits))
	counter("lasso_fit_iterations_total", "Proximal-gradient iterations consumed by selection-stage lasso fits.", int64(ss.LassoIters))
	counter("refine_memo_hits_total", "Refinement iterations that reused a cached graph analysis of an identical subgraph.", int64(ss.MemoHits))
	counter("refine_memo_misses_total", "Refinement iterations that ran Girvan-Newman and centrality.", int64(ss.MemoMisses))
	counter("searches_started_total", "Scenario searches accepted.", m.searchesStarted.Load())
	counter("searches_completed_total", "Scenario searches finished with a result.", m.searchesCompleted.Load())
	counter("searches_failed_total", "Scenario searches finished with an error.", m.searchesFailed.Load())
	counter("searches_canceled_total", "Scenario searches canceled by client or shutdown.", m.searchesCanceled.Load())
	counter("search_nodes_expanded_total", "Branch-and-bound nodes evaluated across searches.", m.searchNodesExpanded.Load())
	counter("search_nodes_pruned_total", "Branch-and-bound subtrees cut by bound or incumbent tests.", m.searchNodesPruned.Load())
	counter("search_incumbent_updates_total", "Best-known-solution improvements across searches.", m.searchIncumbentUpdates.Load())
	counter("artifact_store_hits_total", "Artifact store blob reads that hit.", int64(as.Hits))
	counter("artifact_store_misses_total", "Artifact store blob reads that missed (or failed integrity).", int64(as.Misses))
	counter("artifact_store_evictions_total", "Artifact store blobs evicted by the size cap.", int64(as.Evictions))
	counter("artifact_lock_steals_total", "Stale artifact locks and queue leases stolen from dead holders.", int64(as.Steals))
	counter("fault_injected_total", "Faults fired by the active chaos plane (0 without -faults).", int64(rs.FaultInjected))
	counter("job_retries_total", "Execution attempts retried after transient failures.", m.jobRetries.Load())
	counter("jobs_dead_lettered_total", "Queue jobs retired to the dead-letter directory.", int64(rs.DeadLettered))
	gc := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(gc)
	counter("gc_cycles_total", "Completed garbage-collection cycles since the process started.", int64(gc[0].Value.Uint64()))
	counter("heap_alloc_bytes_total", "Bytes allocated on the heap since the process started.", int64(gc[1].Value.Uint64()))
	gauge("queue_depth", "Executions waiting for a worker.", queueDepth)
	gauge("flights_inflight", "Executions queued or running.", inflight)
	gauge("artifact_store_bytes", "Artifact store on-disk payload bytes.", int(as.Bytes))
	gauge("artifact_store_mem_bytes", "Artifact store in-memory tier payload bytes.", int(as.MemBytes))
	degraded := 0
	if as.Degraded {
		degraded = 1
	}
	gauge("store_degraded", "1 while the artifact store circuit breaker is open (in-memory pass-through).", degraded)
}

// sessionStats is the session slice of the metrics page: its
// cumulative compile-cache, lasso and refinement-memo counters, and
// the process-wide parse layer's subprogram shares underneath it.
type sessionStats struct {
	CompileHits, CompileMisses uint64
	ProgramRebinds             uint64
	ParseShares                uint64
	MetagraphShares            uint64
	LassoFits, LassoIters      uint64
	MemoHits, MemoMisses       uint64
}

// robustStats is the live robustness slice of the metrics page: the
// chaos plane's injection counter and the dead-letter directory size;
// zero-valued without a queue or plane so the series always exist.
type robustStats struct {
	FaultInjected uint64
	DeadLettered  int
}
