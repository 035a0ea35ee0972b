package serve

import (
	"fmt"
	"time"

	"repro/internal/multivec"
	"repro/internal/obs"
	"repro/internal/solver"
)

// run is the dispatcher: it pulls the oldest waiting request, gathers
// a batch around it under the cost-model window, and dispatches one
// fused (or block) solve per batch. One goroutine runs all batches —
// intra-solve parallelism comes from the worker pool underneath the
// kernels, so serializing dispatches keeps the machine's cores on one
// GSPMV at a time instead of thrashing between competing solves.
func (e *Engine) run() {
	defer func() {
		// The dispatcher is the only goroutine multiplying through the
		// fleet, so its exit is the safe point to stop the shard
		// goroutines.
		if e.fleet != nil {
			e.fleet.Close()
		}
		close(e.done)
	}()
	for {
		// A call pulled by the previous gather that did not fit its
		// batch (an ensemble would have pushed the width past MaxBatch)
		// seeds the next batch instead of being requeued.
		first := e.carry
		e.carry = nil
		if first == nil {
			var ok bool
			first, ok = <-e.queue
			if !ok {
				return
			}
			first.enterBatch()
		}
		batch := e.gather(first)
		e.dispatch(batch)
	}
}

// enterBatch marks the queue->batch transition on a traced call: the
// queue_wait span ends (handed off from the submitting goroutine)
// and the batch_wait span opens, covering the time the dispatcher
// holds the request hoping for a fuller kernel.
func (c *call) enterBatch() {
	if c.tr == nil {
		return
	}
	c.qspan.End()
	c.bspan = c.tr.StartSpan("batch_wait")
}

// gather coalesces submissions around first: everything already
// queued is taken immediately; after that the planner decides, from
// the r(m) cost model and the arrival-rate estimate, whether
// dispatching now beats holding the batch open for a fuller kernel.
// Widths are counted in right-hand sides, not calls — an ensemble
// call contributes all its members at once. A pulled call that would
// push the batch past MaxBatch is carried over to seed the next batch
// (calls are never split across dispatches).
func (e *Engine) gather(first *call) []*call {
	batch := []*call{first}
	width := first.width()
	start := time.Now()
	take := func(c *call) bool {
		c.enterBatch()
		if width+c.width() > e.cfg.MaxBatch {
			e.carry = c
			return false
		}
		batch = append(batch, c)
		width += c.width()
		return true
	}
	for width < e.cfg.MaxBatch {
		// Drain whatever is already waiting — taking a queued request
		// is always free.
		select {
		case c, ok := <-e.queue:
			if !ok || !take(c) {
				return batch
			}
			continue
		default:
		}
		w := e.planWait(width, batch, time.Since(start))
		if w <= 0 {
			break
		}
		timer := time.NewTimer(w)
		select {
		case c, ok := <-e.queue:
			timer.Stop()
			if !ok || !take(c) {
				return batch
			}
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// planWait is the dispatch-now-vs-wait decision. With q right-hand
// sides in hand it returns how much longer to hold the batch open, or
// <= 0 to dispatch immediately.
//
// The target is the next useful width: filling the zero-padding of
// the current kernel ceiling costs no extra kernel time (a padded
// column rides for free), while stepping to the next kernel size
// costs T(next) - T(cur). The model prices one solve as
// iters * T(m) (iters is an EWMA of observed iteration counts), and
// waiting is allowed only while
//
//	wait + iters*T(target) <= WaitFactor * iters*T(cur),
//
// so once GSPMV goes compute-bound — T(m) growing linearly, r(m) ~ m
// — the inequality fails and batches stop growing: the batcher's
// window tracks the paper's m_s switch point by construction. The
// wait actually scheduled is the arrival-rate estimate of the time to
// fill the target, clamped by that budget, by each request's context
// deadline slack, and by the hard MaxWait cap.
func (e *Engine) planWait(q int, batch []*call, waited time.Duration) time.Duration {
	if q >= e.cfg.MaxBatch {
		return 0
	}
	rem := e.cfg.MaxWait - waited
	if rem <= 0 {
		return 0
	}
	cur := solver.KernelCeil(q)
	target := cur
	if q == cur {
		target = solver.KernelCeil(cur + 1)
		if target > e.cfg.MaxBatch {
			return 0
		}
	}

	budget := rem
	var tTarget float64
	if e.cfg.Model != nil {
		iters := e.itersEWMA
		tCur := iters * e.cfg.Model.T(cur)
		tTarget = iters * e.cfg.Model.T(target)
		if q == cur {
			// Stepping kernels is only worth the modeled latency
			// stretch; filling padding (q < cur) is free throughput
			// and is bounded by rem alone.
			lat := time.Duration((e.cfg.WaitFactor*tCur - tTarget) * float64(time.Second))
			if lat < budget {
				budget = lat
			}
		}
	}
	// A request whose deadline would expire during the bigger solve
	// must not be held: dispatch now.
	now := time.Now()
	for _, c := range batch {
		if dl, ok := c.ctx.Deadline(); ok {
			slack := dl.Sub(now) - time.Duration(tTarget*float64(time.Second))
			if slack < budget {
				budget = slack
			}
		}
	}
	if budget <= 0 {
		return 0
	}
	if gap := e.arrivalGap(); gap > 0 {
		need := time.Duration(float64(target-q) * gap * float64(time.Second))
		if need > budget {
			// Arrivals are too slow to fill the target inside the
			// budget: waiting would be pure added latency.
			return 0
		}
		return need
	}
	return budget
}

// dispatch solves one coalesced batch and demultiplexes per-call
// results. Calls whose context died while queued are answered with
// ErrCanceled without touching the solver. Ensemble calls contribute
// all their members as adjacent columns of the same fused solve.
func (e *Engine) dispatch(batch []*call) {
	dispatchT0 := time.Now()
	queueDepth.Set(float64(len(e.queue)))
	e.batchSeq++
	live := batch[:0:len(batch)]
	for _, c := range batch {
		queueWait.Observe(dispatchT0.Sub(c.enq).Seconds())
		if c.tr != nil {
			c.bspan.End()
		}
		if c.ctx.Err() != nil {
			canceledQueued.Inc()
			if c.tr != nil {
				c.tr.Event("canceled_in_queue", nil)
			}
			rs := make([]Result, c.width())
			for i := range rs {
				rs[i] = Result{Err: ErrCanceled, QueueWait: dispatchT0.Sub(c.enq)}
			}
			c.res <- rs
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}

	q := 0
	for _, c := range live {
		q += c.width()
	}
	kernelM := solver.KernelCeil(q)
	if kernelM > e.cfg.MaxBatch {
		kernelM = q
	}
	var solveSpans []*obs.Span
	for _, c := range live {
		if c.tr == nil {
			continue
		}
		c.tr.SetAttr("batch", e.batchSeq)
		c.tr.SetAttr("batch_size", int64(q))
		c.tr.SetAttr("kernel_m", int64(kernelM))
		c.tr.SetAttr("mode", string(e.cfg.Mode))
		if e.fleet != nil {
			c.tr.SetAttr("shards", int64(e.fleet.Topology().Shards))
		}
		solveSpans = append(solveSpans, c.tr.StartSpan("solve"))
	}
	if e.fleet != nil {
		// Route the batch's shard-side spans (shardN/shard_solve,
		// shardN/halo_wait) onto the first traced request of the batch:
		// every multiply of the fused solve is shared batch-wide anyway,
		// so one trace carrying the per-shard split is representative.
		var tr *obs.Trace
		for _, c := range live {
			if c.tr != nil {
				tr = c.tr
				break
			}
		}
		e.fleet.AttachTrace(tr)
	}
	var stats []solver.Stats
	xs := make([][]float64, q)
	e.solveBatch(live, q, kernelM, &stats, xs)
	elapsed := time.Since(dispatchT0)
	for _, sp := range solveSpans {
		sp.End()
	}

	batches.Inc()
	batchRHS.Add(int64(q))
	batchSize.Observe(float64(q))
	solveSeconds.Add(elapsed.Seconds())
	var sumIters int
	j := 0
	for _, c := range live {
		rs := make([]Result, c.width())
		callIters := 0
		converged := true
		for i := range rs {
			st := stats[j]
			sumIters += st.Iterations
			callIters += st.Iterations
			converged = converged && st.Converged
			if !st.Converged && st.Err == nil {
				nonConverged.Inc()
			}
			rs[i] = Result{
				X:         xs[j],
				Stats:     st,
				BatchSize: q,
				KernelM:   kernelM,
				QueueWait: dispatchT0.Sub(c.enq),
				SolveTime: elapsed,
				Err:       st.Err,
			}
			j++
		}
		if c.tr != nil {
			// The iteration count also arrives from inside the solver
			// (cg_iterations via the request context); these attrs are
			// the dispatcher's view — summed over an ensemble's members,
			// shared batch-wide in ModeBlock.
			c.tr.SetAttr("iterations", int64(callIters))
			c.tr.SetAttr("converged", converged)
			if e.rec.Enabled() {
				rs := e.rec.Stats()
				c.tr.SetAttr("recycle_basis", int64(rs.BasisSize))
				c.tr.SetAttr("recycle_enabled", rs.Enabled)
			}
			// Tail latencies become traceable: the request-latency
			// histogram bucket this observation lands in remembers
			// this trace's ID as its exemplar.
			latency.ObserveExemplar(time.Since(c.enq).Seconds(), c.tr.ID())
		} else {
			latency.Observe(time.Since(c.enq).Seconds())
		}
		c.res <- rs
	}
	// Refine the iteration estimate the cost model multiplies T(m) by.
	const a = 0.3
	e.itersEWMA = a*float64(sumIters)/float64(q) + (1-a)*e.itersEWMA
}

// solveBatch runs the mode-selected solver over one coalesced batch,
// converting an operator panic — an unrecoverable shard-fleet failure
// (shard.Fleet.Mul panics once retries and re-sharding are exhausted)
// — into per-column ErrShardFailure results instead of killing the
// dispatcher. The engine keeps serving; only the batch in flight is
// answered 503.
func (e *Engine) solveBatch(live []*call, q, kernelM int, stats *[]solver.Stats, xs [][]float64) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		shardFailed.Inc()
		err := fmt.Errorf("%w: %v", ErrShardFailure, r)
		*stats = make([]solver.Stats, q)
		for i := range *stats {
			(*stats)[i] = solver.Stats{Err: err}
		}
	}()
	switch e.cfg.Mode {
	case ModeBlock:
		bstats, bxs := e.solveBlock(live, q, kernelM)
		*stats = bstats
		copy(xs, bxs)
	default:
		// Batch scratch is dispatcher-owned and reused across batches;
		// only xs escapes (Result.X) and stays freshly allocated. The
		// solver workspace makes the steady-state fused path
		// allocation-free apart from the result vectors.
		bs := e.bsBuf[:0]
		opts := e.optsBuf[:0]
		j := 0
		for _, c := range live {
			for _, r := range c.reqs {
				xs[j] = make([]float64, e.n)
				bs = append(bs, r.B)
				opts = append(opts, e.colOptions(c, r))
				j++
			}
		}
		e.beginRecycleRound()
		corrected := e.rec.CorrectZeroColumns(xs, bs)
		if corrected {
			recycleCorrected.Add(int64(q))
		}
		*stats = solver.MultiCGWith(e.ws, e.op, xs, bs, opts)
		for i := range *stats {
			st := &(*stats)[i]
			if st.Err != nil {
				continue
			}
			e.rec.Observe(st.Iterations, corrected)
			if st.Converged {
				e.rec.Harvest(xs[i])
			}
		}
		clear(bs)   // drop request references so reuse does not pin them
		clear(opts) // drop per-request contexts
		e.bsBuf, e.optsBuf = bs[:0], opts[:0]
	}
}

// beginRecycleRound opens one recycler round for the batch about to
// dispatch, first dropping the basis if the shard fleet re-partitioned
// since it was built — a degraded layout changes the operator the
// basis was orthonormalized against.
func (e *Engine) beginRecycleRound() {
	if e.fleet != nil {
		if g := e.fleet.Gen(); g != e.fleetGen {
			e.fleetGen = g
			e.rec.Invalidate()
		}
	}
	e.rec.BeginRound(e.op, false)
}

// blockPack returns the dispatcher-owned packed right-hand-side and
// solution MultiVecs for kernel width w, allocating on first use per
// width and reusing them across batches thereafter.
func (e *Engine) blockPack(w int) (b, x *multivec.MultiVec) {
	if pair, ok := e.packs[w]; ok {
		return pair[0], pair[1]
	}
	b = multivec.New(e.n, w)
	x = multivec.New(e.n, w)
	e.packs[w] = [2]*multivec.MultiVec{b, x}
	return b, x
}

// Bounds on a request's own tolerance. Below minTol no solve gains
// accuracy, only iterations; at 1 or above the zero guess would
// already count as converged, so maxTol is the float64 just below 1.
const (
	minTol = 1e-15
	maxTol = 1 - 0x1p-53
)

// budget resolves a request's tolerance and iteration budget: zero
// selects the engine default, and a client value is clamped to
// [minTol, maxTol] and to at most Config.MaxIter, so no request can
// hold the single dispatcher — and its batch-mates — past an engine-
// default solve. Negative and NaN values never get here (checkBudget).
func (e *Engine) budget(r Req) (tol float64, maxIter int) {
	tol, maxIter = r.Tol, r.MaxIter
	if tol == 0 {
		tol = e.cfg.Tol
	} else {
		tol = min(max(tol, minTol), maxTol)
	}
	if maxIter == 0 || maxIter > e.cfg.MaxIter {
		maxIter = e.cfg.MaxIter
	}
	return tol, maxIter
}

// colOptions builds the solver options for one of a call's requests.
func (e *Engine) colOptions(c *call, r Req) solver.Options {
	tol, maxIter := e.budget(r)
	return solver.Options{Tol: tol, MaxIter: maxIter, Precond: e.cfg.Precond, Ctx: c.ctx}
}

// solveBlock dispatches one BlockCGWithFallback over the batch,
// zero-padding the right-hand-side block to the kernel width, and
// splits the block outcome back into per-request stats. Per-request
// tolerances are honored conservatively: the block solve runs at the
// tightest tolerance in the batch (clamped as in budget) and the
// engine's full iteration budget.
func (e *Engine) solveBlock(live []*call, q, kernelM int) ([]solver.Stats, [][]float64) {
	b, x := e.blockPack(kernelM)
	bs := e.bsBuf[:0]
	opt := solver.Options{Tol: e.cfg.Tol, MaxIter: e.cfg.MaxIter, Precond: e.cfg.Precond}
	for _, c := range live {
		for _, r := range c.reqs {
			bs = append(bs, r.B)
			tol, _ := e.budget(r) // budgets cap at MaxIter, which opt already has
			opt.Tol = min(opt.Tol, tol)
		}
	}
	multivec.PackColumns(b, bs) // fully overwrites b, zero-filling padding
	clear(x.Data)               // reused buffer: restore the zero initial guess
	// Galerkin-correct each column's zero guess from the recycled
	// basis. The shared block recurrence iterates from the corrected
	// block guess (BlockCG forms R = B - A*X); its iteration count is
	// batch-shared, so block rounds feed no per-solve Observe — the
	// model's economics run on fused dispatches only.
	e.beginRecycleRound()
	if e.rec.Enabled() {
		if e.recCol == nil {
			e.recCol = make([]float64, e.n)
		}
		hits := 0
		for j := range bs {
			clear(e.recCol)
			if e.rec.CorrectZero(e.recCol, bs[j]) {
				x.SetCol(j, e.recCol)
				hits++
			}
		}
		recycleCorrected.Add(int64(hits))
	}
	clear(bs)
	e.bsBuf = bs[:0]
	bst := solver.BlockCGWithFallback(e.op, x, b, opt)

	stats := make([]solver.Stats, q)
	xs := make([][]float64, q)
	for j := 0; j < q; j++ {
		xs[j] = make([]float64, e.n)
	}
	multivec.UnpackColumns(xs, x)
	for j := 0; j < q; j++ {
		stats[j] = solver.Stats{
			Iterations: bst.Iterations,
			MatMuls:    bst.MatMuls,
			Converged:  bst.ColumnConverged[j],
			Residual:   bst.ColumnResiduals[j],
			Err:        bst.Err,
		}
		if bst.Err == nil && stats[j].Converged {
			e.rec.Harvest(xs[j])
		}
	}
	return stats, xs
}
