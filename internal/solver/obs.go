package solver

import (
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Solver observability: every solve reports its iteration count,
// matrix-multiply count, convergence outcome, and final relative
// residual into obs.Default. The residual histograms are the data
// behind convergence summaries; the block-CG one receives one
// observation per right-hand side, so the MRHS path is covered at the
// same granularity as single-vector CG (see BlockCG).
var (
	cgSolves   = obs.Default.Counter("solver_cg_solves_total")
	cgIters    = obs.Default.Counter("solver_cg_iterations_total")
	cgMatMuls  = obs.Default.Counter("solver_cg_matmuls_total")
	cgFailures = obs.Default.Counter("solver_cg_nonconverged_total")
	cgResidual = obs.Default.Histogram("solver_cg_final_residual", obs.ResidualBuckets)

	blockSolves   = obs.Default.Counter("solver_blockcg_solves_total")
	blockIters    = obs.Default.Counter("solver_blockcg_iterations_total")
	blockMatMuls  = obs.Default.Counter("solver_blockcg_matmuls_total")
	blockRHS      = obs.Default.Counter("solver_blockcg_rhs_total")
	blockFailures = obs.Default.Counter("solver_blockcg_nonconverged_total")
	blockResidual = obs.Default.Histogram("solver_blockcg_final_residual", obs.ResidualBuckets)

	multiSolves   = obs.Default.Counter("solver_multicg_solves_total")
	multiColumns  = obs.Default.Counter("solver_multicg_rhs_total")
	multiIters    = obs.Default.Counter("solver_multicg_iterations_total")
	multiFailures = obs.Default.Counter("solver_multicg_nonconverged_total")
	multiCanceled = obs.Default.Counter("solver_multicg_canceled_total")
	multiResidual = obs.Default.Histogram("solver_multicg_final_residual", obs.ResidualBuckets)

	refineSolves   = obs.Default.Counter("solver_refine_solves_total")
	refineIters    = obs.Default.Counter("solver_refine_iterations_total")
	refineFailures = obs.Default.Counter("solver_refine_nonconverged_total")
	refineResidual = obs.Default.Histogram("solver_refine_final_residual", obs.ResidualBuckets)

	// Deflation / Krylov recycling: projector rebuilds, the dependent
	// directions Gram-Schmidt drops, corrections applied vs correction
	// opportunities passed (the hit rate), operator-identity
	// invalidations, model auto-disables, and two gauges — the live
	// basis size and the EWMA estimate of iterations saved per
	// corrected solve (cold minus warm).
	deflBuilds        = obs.Default.Counter("solver_deflation_builds_total")
	deflDropped       = obs.Default.Counter("solver_deflation_dropped_total")
	deflCorrections   = obs.Default.Counter("solver_deflation_corrections_total")
	deflSkips         = obs.Default.Counter("solver_deflation_skipped_total")
	deflInvalidations = obs.Default.Counter("solver_deflation_invalidations_total")
	deflDisables      = obs.Default.Counter("solver_deflation_disabled_total")
	deflBasis         = obs.Default.Gauge("solver_deflation_basis_vectors")
	deflSaved         = obs.Default.Gauge("solver_deflation_iters_saved_est")

	// Preconditioner cost: wall seconds spent factoring, and applying
	// per column count m (one observation per apply, whatever m is).
	precondFactorSeconds = obs.Default.FloatCounter("solver_precond_factor_seconds_total")
	precondApplyCache    sync.Map // m -> *obs.FloatCounter
)

// precondApplySeconds returns the solver_precond_apply_seconds_total
// counter for applies to m columns.
func precondApplySeconds(m int) *obs.FloatCounter {
	if c, ok := precondApplyCache.Load(m); ok {
		return c.(*obs.FloatCounter)
	}
	c := obs.Default.FloatCounter(obs.Label("solver_precond_apply_seconds_total", "m", strconv.Itoa(m)))
	precondApplyCache.Store(m, c)
	return c
}

// traceSolve adds one solve's outcome to the request trace carried
// by its Options context (the serve pipeline threads per-request
// traces through Ctx): the iteration count accumulates under
// cg_iterations so a trace shows exactly how much Krylov work its
// request cost, wherever in the stack the solve ran.
func traceSolve(o Options, st *Stats) {
	if tr := obs.TraceFrom(o.Ctx); tr != nil {
		tr.AddInt("cg_iterations", int64(st.Iterations))
		tr.AddInt("cg_matmuls", int64(st.MatMuls))
	}
}

func recordCG(st *Stats) {
	cgSolves.Inc()
	cgIters.Add(int64(st.Iterations))
	cgMatMuls.Add(int64(st.MatMuls))
	cgResidual.Observe(st.Residual)
	if !st.Converged {
		cgFailures.Inc()
	}
}

func recordBlockCG(st *BlockStats) {
	blockSolves.Inc()
	blockIters.Add(int64(st.Iterations))
	blockMatMuls.Add(int64(st.MatMuls))
	blockRHS.Add(int64(len(st.ColumnResiduals)))
	for _, r := range st.ColumnResiduals {
		blockResidual.Observe(r)
	}
	if !st.Converged {
		blockFailures.Inc()
	}
}

func recordMultiCG(stats []Stats) {
	multiSolves.Inc()
	multiColumns.Add(int64(len(stats)))
	for i := range stats {
		st := &stats[i]
		multiIters.Add(int64(st.Iterations))
		multiResidual.Observe(st.Residual)
		if !st.Converged {
			multiFailures.Inc()
		}
		if st.Err != nil {
			multiCanceled.Inc()
		}
	}
}

func recordRefine(st *Stats) {
	refineSolves.Inc()
	refineIters.Add(int64(st.Iterations))
	refineResidual.Observe(st.Residual)
	if !st.Converged {
		refineFailures.Inc()
	}
}
