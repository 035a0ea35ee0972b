package serve

import "repro/internal/obs"

// Serving observability: admission outcomes (accepted / shed /
// drain-rejected / canceled), batching effectiveness (batch-size
// histogram, total RHS per dispatch — mean batch size m̄ is
// serve_batch_rhs_total / serve_batches_total), and the latency split
// between queueing and solving. These are the series the serve-bench
// report and the smoke test read back.
var (
	requests       = obs.Default.Counter("serve_requests_total")
	traced         = obs.Default.Counter("serve_traced_total")
	shed           = obs.Default.Counter("serve_shed_total")
	drainRejected  = obs.Default.Counter("serve_drain_rejected_total")
	canceled       = obs.Default.Counter("serve_canceled_total")
	canceledQueued = obs.Default.Counter("serve_canceled_in_queue_total")
	nonConverged   = obs.Default.Counter("serve_nonconverged_total")
	shardFailed    = obs.Default.Counter("serve_shard_failures_total")
	// precondFallback counts engines whose IC(0) factorization broke
	// down, so they serve plain CG instead.
	precondFallback = obs.Default.Counter("serve_precond_fallback_total")
	// recycleCorrected counts right-hand sides whose zero guess was
	// Galerkin-corrected from the cross-batch deflation basis before
	// the dispatch's solve; the solver-side solver_deflation_* family
	// carries the basis lifecycle (builds, drops, invalidations).
	recycleCorrected = obs.Default.Counter("serve_recycle_corrected_total")

	batches  = obs.Default.Counter("serve_batches_total")
	batchRHS = obs.Default.Counter("serve_batch_rhs_total")

	// Ensemble submissions: whole-ensemble admissions, their member
	// count, and the width distribution (the structural kernel m the
	// client bought regardless of load).
	ensembles       = obs.Default.Counter("serve_ensembles_total")
	ensembleMembers = obs.Default.Counter("serve_ensemble_members_total")
	ensembleWidth   = obs.Default.Histogram("serve_ensemble_width", []float64{1, 2, 4, 8, 16, 32})

	queueDepth = obs.Default.Gauge("serve_queue_depth")

	// Batch sizes are small integers in [1, 32]; latencies span
	// microseconds (cache-hot tiny solves) to seconds.
	batchSize    = obs.Default.Histogram("serve_batch_size", []float64{1, 2, 4, 8, 16, 32})
	queueWait    = obs.Default.Histogram("serve_queue_wait_seconds", timeBuckets)
	latency      = obs.Default.Histogram("serve_request_seconds", timeBuckets)
	solveSeconds = obs.Default.FloatCounter("serve_solve_seconds_total")
)

var timeBuckets = obs.ExponentialBuckets(1e-5, 4, 10) // 10µs .. ~2.6s
