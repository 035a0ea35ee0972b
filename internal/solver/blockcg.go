package solver

import (
	"repro/internal/blas"
	"repro/internal/multivec"
)

// BlockStats extends Stats with per-column convergence for block
// solves.
type BlockStats struct {
	Stats
	// ColumnConverged[j] reports whether right-hand side j met the
	// tolerance.
	ColumnConverged []bool
	// ColumnResiduals[j] is the final relative residual of column j.
	ColumnResiduals []float64
	// Fallback reports that BlockCGWithFallback had to degrade to
	// per-column CG; FallbackColumns counts the columns it rescued
	// (attempted, whether or not they then converged).
	Fallback        bool
	FallbackColumns int
}

// BlockCG solves A*X = B for SPD A and a block of m right-hand sides
// simultaneously, starting from the guesses in X (O'Leary's block
// conjugate gradient method, preconditioned when opt.Precond is set;
// a BlockPreconditioner applies to all m columns in one call).
// Every iteration performs exactly one GSPMV with m vectors plus
// small m-by-m solves — this is the kernel economics the MRHS
// algorithm is built on: the augmented system of Algorithm 2, step 3,
// is solved here at little more than the cost of a single-vector CG.
//
// Convergence is per column: the iteration stops when every column's
// residual satisfies ||r_j|| <= tol*||b_j||. A numerically singular
// m-by-m system (which arises when columns converge early or become
// linearly dependent — the classic block-CG breakdown) is regularized
// with a small diagonal ridge; if it remains singular the solve
// returns with the current iterate and per-column convergence flags.
func BlockCG(a BlockOperator, x, b *multivec.MultiVec, opt Options) (stats BlockStats) {
	n := a.N()
	if x.N != n || b.N != n || x.M != b.M {
		panic("solver: BlockCG dimension mismatch")
	}
	m := x.M
	opt = opt.withDefaults(n)

	stats = BlockStats{
		ColumnConverged: make([]bool, m),
		ColumnResiduals: make([]float64, m),
	}
	// On return, mirror the per-column final residuals into
	// Stats.Residuals so block solves feed the same residual
	// reporting as single-vector CG, and record the obs metrics.
	// stats is a named result, so these deferred writes reach the
	// caller.
	defer func() {
		stats.Residuals = append(stats.Residuals[:0], stats.ColumnResiduals...)
		recordBlockCG(&stats)
	}()

	// R = B - A*X.
	r := multivec.New(n, m)
	a.Mul(r, x)
	stats.MatMuls++
	r.Sub(b, r)

	bnorms := b.ColNorms()
	// Zero columns are already solved by x_j = 0.
	for j, bn := range bnorms {
		if bn == 0 {
			col := make([]float64, n)
			x.SetCol(j, col)
			stats.ColumnConverged[j] = true
		}
	}
	// rn is the per-iteration residual-norm scratch: the convergence
	// check runs every iteration and must not allocate.
	rn := make([]float64, m)
	check := func() bool {
		r.ColNormsInto(rn)
		all := true
		worst := 0.0
		for j := range rn {
			if bnorms[j] == 0 {
				continue
			}
			rel := rn[j] / bnorms[j]
			stats.ColumnResiduals[j] = rel
			if rel <= opt.Tol {
				stats.ColumnConverged[j] = true
			} else {
				stats.ColumnConverged[j] = false
				all = false
			}
			if rel > worst {
				worst = rel
			}
		}
		stats.Residual = worst
		return all
	}
	if check() {
		stats.Converged = true
		return stats
	}

	// z is the preconditioned residual M^{-1} R; without a
	// preconditioner it aliases r and the extra work vanishes.
	z := r
	applyPrecond := func() {}
	if opt.Precond != nil {
		z = multivec.New(n, m)
		bp := blockPrecond(opt.Precond)
		applyPrecond = func() { bp.ApplyMulti(z, r) }
		applyPrecond()
	}

	p := z.Clone()
	s := multivec.New(n, m)
	pNew := multivec.New(n, m)
	// The small m-by-m Gram products are recomputed every iteration;
	// holding their storage across iterations keeps the inner loop
	// allocation-free apart from the LU solves of the m-by-m systems.
	ztr := blas.NewDense(m, m)
	ztrNew := blas.NewDense(m, m)
	pts := blas.NewDense(m, m)
	multivec.GramInto(ztr, z, r)

	for it := 0; it < opt.MaxIter; it++ {
		if opt.canceled() {
			stats.Err = ErrCanceled
			break
		}
		a.Mul(s, p) // S = A*P: the one GSPMV per iteration
		stats.MatMuls++

		multivec.GramInto(pts, p, s)
		alpha, ok := solveSmall(pts, ztr)
		if !ok {
			break // irrecoverable breakdown; return current iterate
		}
		x.AddMul(p, alpha)
		// R <- R - S*alpha, fused as an AddMul with negated alpha.
		for i := range alpha.Data {
			alpha.Data[i] = -alpha.Data[i]
		}
		r.AddMul(s, alpha)
		stats.Iterations = it + 1

		if check() {
			stats.Converged = true
			break
		}

		applyPrecond()
		multivec.GramInto(ztrNew, z, r)
		beta, ok := solveSmall(ztr, ztrNew)
		if !ok {
			break
		}
		ztr, ztrNew = ztrNew, ztr
		// P <- Z + P*beta.
		pNew.SetMulAdd(z, p, beta)
		p, pNew = pNew, p
	}
	return stats
}

// solveSmall solves the m-by-m system G*X = H, regularizing a
// singular G with a relative diagonal ridge. It reports failure only
// if the ridge does not help.
func solveSmall(g, h *blas.Dense) (*blas.Dense, bool) {
	f, err := blas.LUFactor(g)
	if err != nil {
		ridge := 0.0
		for i := 0; i < g.Rows; i++ {
			if v := g.At(i, i); v > ridge {
				ridge = v
			}
		}
		if ridge == 0 {
			ridge = 1
		}
		gr := g.Clone()
		for i := 0; i < gr.Rows; i++ {
			gr.Add(i, i, ridge*1e-13)
		}
		f, err = blas.LUFactor(gr)
		if err != nil {
			return nil, false
		}
	}
	return f.SolveMatrix(h), true
}
