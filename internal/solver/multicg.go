package solver

import (
	"reflect"

	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/parallel"
)

// KernelSizes lists the vector counts with specialized fully-unrolled
// GSPMV kernels (internal/bcrs). The batching solve server rounds
// batch widths up to these sizes; MultiCG pads its fused multiplies
// the same way.
var KernelSizes = [...]int{1, 2, 4, 8, 16, 32}

// KernelCeil returns the smallest specialized-kernel vector count that
// is >= q, or q itself when q exceeds the largest specialized kernel
// (the generic kernel handles it).
func KernelCeil(q int) int {
	for _, k := range KernelSizes {
		if k >= q {
			return k
		}
	}
	return q
}

// MultiCG solves the q independent systems A*x_j = b_j by running one
// standard (preconditioned) CG recurrence per column while fusing the
// matrix multiplies of all still-active columns into a single GSPMV
// per iteration — the multiple-right-hand-side economics of the paper
// applied to *independent* solves, after Krasnopolsky's ensemble
// fusion (arXiv:1711.10622).
//
// Unlike BlockCG, the columns share nothing but the matrix traffic:
// each keeps its own scalar alpha/beta recurrence, converges against
// its own tolerance and iteration budget, and drops out of the fused
// multiply as soon as it is done (the remaining columns are repacked
// to the next specialized kernel width). Because the GSPMV kernels
// accumulate every column with an identical operation order for every
// m, and all per-column vector operations run on contiguous scratch
// the same way CG's do, each column's iterate is BITWISE-IDENTICAL to
// what CG(a, x_j, b_j, opts[j]) alone would produce — the property
// the serving layer's batched-vs-unbatched equivalence test pins down.
//
// opts[j] applies to column j (tolerance, iteration budget,
// preconditioner, per-request cancellation context). When every
// column names the same preconditioner and it has a block form
// (BlockPreconditioner, as IC0 does), the still-active residuals are
// packed and preconditioned in one ApplyMulti per iteration, so the
// factor is read once for all of them the way the matrix is; each
// column still receives exactly what Apply would give it. xs[j]
// supplies the initial guess and receives the solution.
func MultiCG(a BlockOperator, xs, bs [][]float64, opts []Options) []Stats {
	return MultiCGWith(nil, a, xs, bs, opts)
}

// MultiCGWorkspace owns the scratch MultiCG needs — the per-column
// residual/direction/product vectors and the padded pack-buffer pair
// per kernel width — so a long-lived caller (the batching server's
// dispatcher) can amortize allocations across batches instead of
// paying them per solve. A workspace serves one MultiCGWith call at a
// time; it is not safe for concurrent use.
type MultiCGWorkspace struct {
	n     int
	packs map[int][2]*multivec.MultiVec // kernel width -> {px, py}
	vecs  [][]float64                   // length-n scratch, reused across calls
	used  int
}

// NewMultiCGWorkspace returns an empty workspace; buffers are grown on
// first use and retained across calls.
func NewMultiCGWorkspace() *MultiCGWorkspace {
	return &MultiCGWorkspace{packs: map[int][2]*multivec.MultiVec{}}
}

// reset prepares the workspace for a solve over n-vectors, dropping
// buffers if the operator dimension changed.
func (ws *MultiCGWorkspace) reset(n int) {
	if ws.n != n {
		ws.n = n
		ws.packs = map[int][2]*multivec.MultiVec{}
		ws.vecs = nil
	}
	ws.used = 0
}

// vec hands out a length-n scratch vector. Contents are unspecified:
// every MultiCG use overwrites the vector in full before reading it,
// which is what keeps reuse bitwise-invisible.
func (ws *MultiCGWorkspace) vec() []float64 {
	if ws.used < len(ws.vecs) {
		v := ws.vecs[ws.used]
		ws.used++
		return v
	}
	v := make([]float64, ws.n)
	ws.vecs = append(ws.vecs, v)
	ws.used++
	return v
}

// pack returns the padded pack-buffer pair for kernel width w.
// PackColumns zero-fills padding columns on every call, so reuse
// cannot leak values between batches.
func (ws *MultiCGWorkspace) pack(w int) (px, py *multivec.MultiVec) {
	if pair, ok := ws.packs[w]; ok {
		return pair[0], pair[1]
	}
	px = multivec.New(ws.n, w)
	py = multivec.New(ws.n, w)
	ws.packs[w] = [2]*multivec.MultiVec{px, py}
	return px, py
}

// MultiCGWith is MultiCG solving through caller-owned scratch: ws,
// when non-nil, supplies every temporary the solve needs. Results are
// bitwise-identical with or without a workspace — all scratch is
// fully overwritten before it is read.
func MultiCGWith(ws *MultiCGWorkspace, a BlockOperator, xs, bs [][]float64, opts []Options) []Stats {
	n := a.N()
	q := len(xs)
	if len(bs) != q || len(opts) != q {
		panic("solver: MultiCG slice count mismatch")
	}
	for j := 0; j < q; j++ {
		if len(xs[j]) != n || len(bs[j]) != n {
			panic("solver: MultiCG dimension mismatch")
		}
	}
	stats := make([]Stats, q)
	if q == 0 {
		return stats
	}
	defer recordMultiCG(stats)
	if ws == nil {
		ws = NewMultiCGWorkspace()
	}
	ws.reset(n)

	type col struct {
		id                int // original column index (ColumnOperator identity)
		x, b, r, z, p, ap []float64
		rz, bnorm, rnorm  float64
		opt               Options
		st                *Stats
	}
	cols := make([]*col, q)
	for j := 0; j < q; j++ {
		cols[j] = &col{
			id: j,
			x:  xs[j], b: bs[j],
			r:   ws.vec(),
			opt: opts[j].withDefaults(n),
			st:  &stats[j],
		}
	}

	// The fused R = B - A*X: one padded GSPMV computes A*x_j for every
	// column at once (columns are packed to the next specialized
	// kernel width; the zero padding columns are ignored on unpack).
	pool := parallel.Default()
	w := KernelCeil(q)
	px, py := ws.pack(w)
	rcols := make([][]float64, q)
	xcols := make([][]float64, q)
	ids := make([]int, q)
	for j, c := range cols {
		rcols[j] = c.r
		xcols[j] = c.x
		ids[j] = j
	}
	multivec.PackColumns(px, xcols)
	mulColumns(a, py, px, ids)
	multivec.UnpackColumns(rcols, py)

	// Per-column setup, mirroring CG exactly: zero right-hand sides
	// and already-converged guesses retire immediately.
	active := make([]*col, 0, q)
	retire := func(c *col) {
		if c.bnorm > 0 {
			c.st.Residual = c.rnorm / c.bnorm
		}
		// Each column retires exactly once; its request trace (if the
		// serve layer attached one through Options.Ctx) receives the
		// column's own iteration count, not the batch's.
		traceSolve(c.opt, c.st)
	}
	// precondition sets z = M^{-1} r on the given columns, which all
	// have a preconditioner. A shared block preconditioner takes them
	// in one ApplyMulti, its pack buffers borrowed from the GSPMV pair
	// of the current width (>= len(cs), and dead between the unpack of
	// A*p and the next pack).
	bp := sharedBlockPrecond(opts)
	var rv, zv multivec.MultiVec
	rs, zs := make([][]float64, 0, q), make([][]float64, 0, q)
	precondition := func(cs []*col) {
		if len(cs) == 0 {
			return
		}
		if bp == nil || len(cs) == 1 {
			for _, c := range cs {
				c.opt.Precond.Apply(c.z, c.r)
			}
			return
		}
		k := len(cs)
		rv = multivec.MultiVec{N: n, M: k, Data: px.Data[:n*k]}
		zv = multivec.MultiVec{N: n, M: k, Data: py.Data[:n*k]}
		rs, zs = rs[:0], zs[:0]
		for _, c := range cs {
			rs = append(rs, c.r)
			zs = append(zs, c.z)
		}
		multivec.PackColumns(&rv, rs)
		bp.ApplyMulti(&zv, &rv)
		multivec.UnpackColumns(zs, &zv)
	}

	var pending []*col // active columns awaiting z = M^{-1} r
	for _, c := range cols {
		c.st.MatMuls = 1
		blas.Sub(c.r, c.b, c.r)
		c.bnorm = blas.Nrm2(c.b)
		if c.bnorm == 0 {
			blas.Fill(c.x, 0)
			c.st.Converged = true
			traceSolve(c.opt, c.st)
			continue
		}
		c.rnorm = blas.Nrm2(c.r)
		if c.rnorm <= c.opt.Tol*c.bnorm {
			c.st.Converged = true
			retire(c)
			continue
		}
		c.z = c.r
		if c.opt.Precond != nil {
			c.z = ws.vec()
			pending = append(pending, c)
		}
		active = append(active, c)
	}
	precondition(pending)
	for _, c := range active {
		c.p = ws.vec()
		copy(c.p, c.z)
		c.rz = blas.Dot(c.r, c.z)
		c.ap = ws.vec()
	}

	pcols := make([][]float64, 0, q)
	apcols := make([][]float64, 0, q)
	for len(active) > 0 {
		// Budget and cancellation checks in the same order CG performs
		// them: the iteration-count test guards the loop, the context
		// test runs at the top of the body.
		live := active[:0]
		for _, c := range active {
			switch {
			case c.st.Iterations >= c.opt.MaxIter:
				retire(c)
			case c.opt.canceled():
				c.st.Err = ErrCanceled
				retire(c)
			default:
				live = append(live, c)
			}
		}
		active = live
		if len(active) == 0 {
			break
		}

		// One fused GSPMV over the active columns, padded to the next
		// specialized kernel width.
		w = KernelCeil(len(active))
		if px.M != w {
			px, py = ws.pack(w)
		}
		pcols, apcols, ids = pcols[:0], apcols[:0], ids[:0]
		for _, c := range active {
			pcols = append(pcols, c.p)
			apcols = append(apcols, c.ap)
			ids = append(ids, c.id)
		}
		multivec.PackColumns(px, pcols)
		mulColumns(a, py, px, ids)
		multivec.UnpackColumns(apcols, py)

		// Each column's CG step is split at the preconditioner so the
		// columns still running can share one block apply; the per-
		// column arithmetic and its order are CG's.
		live = active[:0]
		pending = pending[:0]
		for _, c := range active {
			c.st.MatMuls++
			alpha := c.rz / blas.Dot(c.p, c.ap)
			blas.Axpy(alpha, c.p, c.x)
			blas.Axpy(-alpha, c.ap, c.r)
			c.st.Iterations++

			c.rnorm = blas.Nrm2(c.r)
			if c.opt.TrackResiduals {
				c.st.Residuals = append(c.st.Residuals, c.rnorm/c.bnorm)
			}
			if c.rnorm <= c.opt.Tol*c.bnorm {
				c.st.Converged = true
				retire(c)
				continue
			}
			if c.opt.Precond != nil {
				pending = append(pending, c)
			}
			live = append(live, c)
		}
		active = live
		precondition(pending)
		for _, c := range active {
			rzNew := blas.Dot(c.r, c.z)
			beta := rzNew / c.rz
			c.rz = rzNew
			p, z := c.p, c.z
			// Disjoint writes, same op label and grain as CG: the
			// update is bitwise-identical to the single-vector path.
			pool.ForOp("cg_update", n, 8192, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					p[i] = z[i] + beta*p[i]
				}
			})
		}
	}
	return stats
}

// sharedBlockPrecond returns the block form of the preconditioner
// every column names, or nil when the columns do not all share one
// (by pointer identity) or it applies a column at a time.
func sharedBlockPrecond(opts []Options) BlockPreconditioner {
	p := opts[0].Precond
	bp, ok := p.(BlockPreconditioner)
	if !ok || reflect.TypeOf(p).Kind() != reflect.Pointer {
		return nil
	}
	for _, o := range opts[1:] {
		if o.Precond != p {
			return nil
		}
	}
	return bp
}
