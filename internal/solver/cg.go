package solver

import (
	"context"
	"errors"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/parallel"
)

// ErrCanceled is reported in Stats.Err when a solve stops early
// because Options.Ctx was canceled or its deadline expired. The
// iterate holds the last completed iteration's state; the solve does
// not panic or discard progress.
var ErrCanceled = errors.New("solver: solve canceled")

// Stats reports the outcome of an iterative solve.
type Stats struct {
	// Iterations is the number of iterations performed.
	Iterations int
	// MatMuls is the number of matrix multiplications performed
	// (for block solvers each multiplies a block of vectors).
	MatMuls int
	// Converged reports whether the residual criterion was met.
	Converged bool
	// Residual is the final relative residual norm ||b-Ax||/||b||
	// (max over columns for block solves).
	Residual float64
	// Residuals holds the relative residual after each iteration
	// when Options.TrackResiduals is set (convergence curves). Block
	// solves instead store one entry per right-hand side: the final
	// relative residual of each column.
	Residuals []float64
	// Err is ErrCanceled when the solve was stopped by Options.Ctx;
	// nil otherwise (running out of iterations is not an error, it is
	// reported through Converged).
	Err error
}

// Options controls the iterative solvers.
type Options struct {
	// Tol is the relative residual tolerance; the paper stops when
	// ||r|| <= 1e-6 * ||b|| (Section V-B1). Defaults to 1e-6.
	Tol float64
	// MaxIter bounds the iterations. Defaults to 10*n.
	MaxIter int
	// Precond, if non-nil, turns CG into preconditioned CG.
	Precond Preconditioner
	// TrackResiduals records the per-iteration relative residual in
	// Stats.Residuals (single-vector CG only).
	TrackResiduals bool
	// Ctx, if non-nil, is checked once per iteration: when it is
	// canceled or past its deadline the solve returns early with
	// Stats.Err = ErrCanceled and the current iterate in x. This is
	// how the batching solve server enforces per-request deadlines
	// inside long iteration loops.
	Ctx context.Context
}

// canceled reports whether the solve's context has been canceled.
func (o Options) canceled() bool {
	return o.Ctx != nil && o.Ctx.Err() != nil
}

func (o Options) withDefaults(n int) Options {
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	if o.MaxIter == 0 {
		o.MaxIter = 10 * n
	}
	return o
}

// Preconditioner applies z = M^{-1} r.
type Preconditioner interface {
	Apply(z, r []float64)
}

// BlockPreconditioner applies M^{-1} to every column of a block of
// vectors in one call, so an implementation can read its operator
// once for all m columns (IC0 does). Column j of Z must equal Apply on
// column j of R.
type BlockPreconditioner interface {
	ApplyMulti(z, r *multivec.MultiVec)
}

// blockPrecond returns p's block form: p itself when it has one,
// otherwise a column-by-column loop over Apply.
func blockPrecond(p Preconditioner) BlockPreconditioner {
	if bp, ok := p.(BlockPreconditioner); ok {
		return bp
	}
	return &columnPrecond{p: p}
}

// columnPrecond is the block form of a single-vector preconditioner:
// it copies each column out, applies, and copies it back.
type columnPrecond struct {
	p          Preconditioner
	rcol, zcol []float64
}

func (c *columnPrecond) ApplyMulti(z, r *multivec.MultiVec) {
	if len(c.rcol) != r.N {
		c.rcol = make([]float64, r.N)
		c.zcol = make([]float64, r.N)
	}
	for j := 0; j < r.M; j++ {
		r.Col(j, c.rcol)
		c.p.Apply(c.zcol, c.rcol)
		z.SetCol(j, c.zcol)
	}
}

// CG solves A*x = b for SPD A by (preconditioned) conjugate
// gradients, starting from the initial guess already stored in x.
// The warm start is the mechanism the MRHS algorithm exploits: a good
// guess from the augmented solve cuts the iteration count by 30-40%
// (paper Table V).
func CG(a Operator, x, b []float64, opt Options) Stats {
	n := a.N()
	if len(x) != n || len(b) != n {
		panic("solver: CG dimension mismatch")
	}
	opt = opt.withDefaults(n)

	r := make([]float64, n)
	a.MulVec(r, x)
	blas.Sub(r, b, r)
	stats := Stats{MatMuls: 1}
	defer func() { recordCG(&stats); traceSolve(opt, &stats) }()

	bnorm := blas.Nrm2(b)
	if bnorm == 0 {
		// Solution of A*x = 0 is x = 0.
		blas.Fill(x, 0)
		stats.Converged = true
		return stats
	}
	rnorm := blas.Nrm2(r)
	if rnorm <= opt.Tol*bnorm {
		stats.Converged = true
		stats.Residual = rnorm / bnorm
		return stats
	}

	z := r
	if opt.Precond != nil {
		z = make([]float64, n)
		opt.Precond.Apply(z, r)
	}
	p := append([]float64(nil), z...)
	rz := blas.Dot(r, z)
	ap := make([]float64, n)

	for it := 0; it < opt.MaxIter; it++ {
		if opt.canceled() {
			stats.Err = ErrCanceled
			break
		}
		a.MulVec(ap, p)
		stats.MatMuls++
		alpha := rz / blas.Dot(p, ap)
		blas.Axpy(alpha, p, x)
		blas.Axpy(-alpha, ap, r)
		stats.Iterations = it + 1

		rnorm = blas.Nrm2(r)
		if opt.TrackResiduals {
			stats.Residuals = append(stats.Residuals, rnorm/bnorm)
		}
		if rnorm <= opt.Tol*bnorm {
			stats.Converged = true
			break
		}
		if opt.Precond != nil {
			opt.Precond.Apply(z, r)
		}
		rzNew := blas.Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		// Disjoint writes: bitwise-identical for any thread count.
		parallel.Default().ForOp("cg_update", n, 8192, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
	}
	stats.Residual = rnorm / bnorm
	return stats
}

// BlockJacobi is a 3x3 block-diagonal preconditioner: each diagonal
// block of the matrix is inverted once at construction.
type BlockJacobi struct {
	inv []blas.Mat3
}

// NewBlockJacobi builds the preconditioner from the matrix's diagonal
// blocks. Singular diagonal blocks fall back to the identity.
func NewBlockJacobi(a *bcrs.Matrix) *BlockJacobi {
	d := a.DiagBlocks()
	inv := make([]blas.Mat3, len(d))
	for i, blk := range d {
		if m, ok := blk.Inv3(); ok {
			inv[i] = m
		} else {
			inv[i] = blas.Ident3()
		}
	}
	return &BlockJacobi{inv: inv}
}

// Apply computes z = M^{-1} r blockwise.
func (bj *BlockJacobi) Apply(z, r []float64) {
	if len(z) != 3*len(bj.inv) || len(r) != len(z) {
		panic("solver: BlockJacobi dimension mismatch")
	}
	for i, m := range bj.inv {
		v := m.MulV(blas.Vec3{r[3*i], r[3*i+1], r[3*i+2]})
		z[3*i], z[3*i+1], z[3*i+2] = v[0], v[1], v[2]
	}
}
