package solver

import (
	"errors"
	"math"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/parallel"
)

// IC0 is a block incomplete Cholesky factorization with zero fill-in:
// a block lower-triangular L with exactly the lower-triangular
// sparsity of A such that L*L^T ~ A. Applying it costs one block
// forward and one block backward substitution.
//
// This is the first of the three techniques the paper lists for
// sequences of slowly-varying systems (Section III): "invest in
// constructing a preconditioner that can be reused for solving with
// many matrices ... recomputed when the convergence rate has
// sufficiently degraded". The experiments compare it, Krylov
// recycling, and the MRHS initial guesses.
type IC0 struct {
	nb     int
	rowPtr []int32
	colIdx []int32
	blocks []blas.Mat3 // stored lower-triangular blocks, row-wise
	diag   []int       // index into blocks of each row's diagonal block
	// diagChol holds the lower Cholesky factor of each diagonal block
	// for the substitution sweeps.
	diagChol []blas.Mat3

	// The strictly lower part of L again, transposed and stored by
	// block column: column j lists the rows i > j that couple to it in
	// descending order, each with L_ij^T. Precomputing it at factor
	// time lets the backward sweep gather each row of L^T x
	// contiguously instead of transposing every block on every apply;
	// the descending order reproduces the subtraction order of the
	// row-wise scatter, so results are bitwise-unchanged.
	tPtr    []int32
	tRow    []int32
	tBlocks []blas.Mat3
}

// ErrICBreakdown is returned when a pivot block loses positive
// definiteness during the incomplete factorization.
var ErrICBreakdown = errors.New("solver: incomplete Cholesky breakdown")

// NewIC0 factors the SPD block matrix a. Only the lower triangle of
// a's sparsity is used. A diagonal shift is applied on breakdown:
// the factorization retries with A + shift*diag(A) doubling the shift
// until it succeeds (standard Manteuffel-style remedy), up to a
// failure bound.
func NewIC0(a *bcrs.Matrix) (*IC0, error) {
	if a.NB() != a.NCB() {
		return nil, errors.New("solver: IC0 requires a square matrix")
	}
	t0 := time.Now()
	defer func() { precondFactorSeconds.Add(time.Since(t0).Seconds()) }()
	shift := 0.0
	for try := 0; try < 8; try++ {
		ic, err := factorIC0(a, shift)
		if err == nil {
			ic.buildTranspose()
			return ic, nil
		}
		if shift == 0 {
			shift = 1e-3
		} else {
			shift *= 4
		}
	}
	return nil, ErrICBreakdown
}

// factorIC0 attempts the factorization with a relative diagonal
// shift.
func factorIC0(a *bcrs.Matrix, shift float64) (*IC0, error) {
	nb := a.NB()
	ic := &IC0{nb: nb}

	// Extract the lower-triangular pattern and values.
	rowPtr := make([]int32, nb+1)
	var colIdx []int32
	var blocks []blas.Mat3
	diag := make([]int, nb)
	for i := 0; i < nb; i++ {
		lo, hi := a.RowBlocks(i)
		found := false
		for k := lo; k < hi; k++ {
			j := a.BlockCol(k)
			if j > i {
				break // columns sorted
			}
			blk := a.BlockAt(k)
			if j == i {
				found = true
				diag[i] = len(blocks)
				if shift > 0 {
					for q := 0; q < 3; q++ {
						blk[q*3+q] *= 1 + shift
					}
				}
			}
			colIdx = append(colIdx, int32(j))
			blocks = append(blocks, blk)
		}
		if !found {
			return nil, errors.New("solver: IC0 requires stored diagonal blocks")
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	ic.rowPtr = rowPtr
	ic.colIdx = colIdx
	ic.blocks = blocks
	ic.diag = diag
	ic.diagChol = make([]blas.Mat3, nb)

	// colPos[j] maps block column j to its position in the current
	// row during the update scan; -1 when absent.
	colPos := make([]int, nb)
	for i := range colPos {
		colPos[i] = -1
	}

	for i := 0; i < nb; i++ {
		lo, hi := int(rowPtr[i]), int(rowPtr[i+1])
		for k := lo; k < hi; k++ {
			colPos[colIdx[k]] = k
		}
		// For each stored block (i, j), j < i:
		// L_ij = (A_ij - sum_{p<j, p in both rows} L_ip * L_jp^T) * L_jj^{-T}
		for k := lo; k < hi-1; k++ {
			j := int(colIdx[k])
			acc := ic.blocks[k]
			jlo, jhi := int(rowPtr[j]), int(rowPtr[j+1])
			for q := jlo; q < jhi-1; q++ {
				p := int(colIdx[q])
				if kp := colPos[p]; kp >= 0 && kp < k {
					acc = acc.SubM(mulABt(ic.blocks[kp], ic.blocks[q]))
				}
			}
			// Solve L_ij * L_jj^T = acc for L_ij.
			ic.blocks[k] = solveRightTranspose(acc, ic.diagChol[j])
		}
		// Diagonal: L_ii L_ii^T = A_ii - sum_p L_ip L_ip^T.
		kd := diag[i]
		acc := ic.blocks[kd]
		for k := lo; k < hi-1; k++ {
			acc = acc.SubM(mulABt(ic.blocks[k], ic.blocks[k]))
		}
		chol, ok := chol3(acc)
		if !ok {
			// Clear colPos before bailing.
			for k := lo; k < hi; k++ {
				colPos[colIdx[k]] = -1
			}
			return nil, ErrICBreakdown
		}
		ic.diagChol[i] = chol
		ic.blocks[kd] = chol
		for k := lo; k < hi; k++ {
			colPos[colIdx[k]] = -1
		}
	}
	return ic, nil
}

// mulABt returns A * B^T for 3x3 blocks.
func mulABt(a, b blas.Mat3) blas.Mat3 {
	var r blas.Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += a[i*3+k] * b[j*3+k]
			}
			r[i*3+j] = s
		}
	}
	return r
}

// chol3 returns the lower Cholesky factor of a 3x3 SPD block.
func chol3(a blas.Mat3) (blas.Mat3, bool) {
	var l blas.Mat3
	for j := 0; j < 3; j++ {
		d := a[j*3+j]
		for k := 0; k < j; k++ {
			d -= l[j*3+k] * l[j*3+k]
		}
		if d <= 0 {
			return l, false
		}
		d = math.Sqrt(d)
		l[j*3+j] = d
		for i := j + 1; i < 3; i++ {
			s := a[i*3+j]
			for k := 0; k < j; k++ {
				s -= l[i*3+k] * l[j*3+k]
			}
			l[i*3+j] = s / d
		}
	}
	return l, true
}

// solveRightTranspose solves X * L^T = B for X given a 3x3 lower
// Cholesky factor L (i.e. X = B * L^{-T}).
func solveRightTranspose(b, l blas.Mat3) blas.Mat3 {
	var x blas.Mat3
	// Row r of X solves x_r * L^T = b_r, i.e. L * x_r^T = b_r^T:
	// forward substitution with L.
	for r := 0; r < 3; r++ {
		for i := 0; i < 3; i++ {
			s := b[r*3+i]
			for k := 0; k < i; k++ {
				s -= l[i*3+k] * x[r*3+k]
			}
			x[r*3+i] = s / l[i*3+i]
		}
	}
	return x
}

// buildTranspose fills the by-column transposed copy of L's strictly
// lower part that the backward sweeps gather from.
func (ic *IC0) buildTranspose() {
	nb := ic.nb
	ic.tPtr = make([]int32, nb+1)
	for i := 0; i < nb; i++ {
		for k := ic.rowPtr[i]; k < ic.rowPtr[i+1]-1; k++ {
			ic.tPtr[ic.colIdx[k]+1]++
		}
	}
	for j := 0; j < nb; j++ {
		ic.tPtr[j+1] += ic.tPtr[j]
	}
	nt := ic.tPtr[nb]
	ic.tRow = make([]int32, nt)
	ic.tBlocks = make([]blas.Mat3, nt)
	// Visiting rows in descending order fills each column's rows in
	// descending order — the order the row-wise scatter applied them.
	fill := append([]int32(nil), ic.tPtr[:nb]...)
	for i := nb - 1; i >= 0; i-- {
		for k := ic.rowPtr[i]; k < ic.rowPtr[i+1]-1; k++ {
			j := ic.colIdx[k]
			ic.tRow[fill[j]] = int32(i)
			ic.tBlocks[fill[j]] = ic.blocks[k].Transpose3()
			fill[j]++
		}
	}
}

// Apply computes z = (L L^T)^{-1} r: one forward and one backward
// block substitution. It satisfies the Preconditioner interface. z
// may alias r.
func (ic *IC0) Apply(z, r []float64) {
	n := ic.nb * 3
	if len(z) != n || len(r) != n {
		panic("solver: IC0 dimension mismatch")
	}
	t0 := time.Now()
	ic.apply(z, r)
	precondApplySeconds(1).Add(time.Since(t0).Seconds())
}

// apply is Apply without the timing.
func (ic *IC0) apply(z, r []float64) {
	// Forward: L*y = r (y stored in z). Every expression keeps the
	// evaluation order of the Mat3.MulV/Vec3.Sub form the tests hold
	// as the reference, without its 72-byte block copies per call;
	// ApplyMulti's sweeps repeat the same order per column.
	for i := 0; i < ic.nb; i++ {
		a0, a1, a2 := r[3*i], r[3*i+1], r[3*i+2]
		for k := ic.rowPtr[i]; k < ic.rowPtr[i+1]-1; k++ {
			b := &ic.blocks[k]
			x := z[3*ic.colIdx[k]:][:3]
			a0 -= b[0]*x[0] + b[1]*x[1] + b[2]*x[2]
			a1 -= b[3]*x[0] + b[4]*x[1] + b[5]*x[2]
			a2 -= b[6]*x[0] + b[7]*x[1] + b[8]*x[2]
		}
		l := &ic.diagChol[i]
		y0 := a0 / l[0]
		y1 := (a1 - l[3]*y0) / l[4]
		z[3*i], z[3*i+1], z[3*i+2] = y0, y1, (a2-l[6]*y0-l[7]*y1)/l[8]
	}
	// Backward: L^T*z = y, gathering each row of L^T from the rows
	// below it.
	for j := ic.nb - 1; j >= 0; j-- {
		a0, a1, a2 := z[3*j], z[3*j+1], z[3*j+2]
		for k := ic.tPtr[j]; k < ic.tPtr[j+1]; k++ {
			b := &ic.tBlocks[k]
			x := z[3*ic.tRow[k]:][:3]
			a0 -= b[0]*x[0] + b[1]*x[1] + b[2]*x[2]
			a1 -= b[3]*x[0] + b[4]*x[1] + b[5]*x[2]
			a2 -= b[6]*x[0] + b[7]*x[1] + b[8]*x[2]
		}
		l := &ic.diagChol[j]
		x2 := a2 / l[8]
		x1 := (a1 - l[7]*x2) / l[4]
		z[3*j], z[3*j+1], z[3*j+2] = (a0-l[3]*x1-l[6]*x2)/l[0], x1, x2
	}
}

// icColGroup is the narrowest column group ApplyMulti hands to one
// worker: below it the pool dispatch costs more than the sweep. It is
// also the AVX2 sweep's lane-group width, so group boundaries fall on
// whole lane groups.
const icColGroup = 4

// ApplyMulti computes Z = (L L^T)^{-1} R for every column of a block
// at once. Each sweep reads every block of L (and of its precomputed
// transpose) once for all the columns in a group — the GSPMV
// amortization of Section IV carried into the preconditioner — and,
// where AVX2 is available, runs four columns per vector instruction.
// Column groups of at least icColGroup columns run on the shared
// pool. Each column's arithmetic is exactly Apply's, so every column
// is bitwise-identical to Apply on it, for any m and thread count. Z
// may alias R. It satisfies BlockPreconditioner.
func (ic *IC0) ApplyMulti(z, r *multivec.MultiVec) {
	if z.N != 3*ic.nb || r.N != z.N || r.M != z.M {
		panic("solver: IC0 dimension mismatch")
	}
	t0 := time.Now()
	m := z.M
	groups := parallel.Threads()
	if g := m / icColGroup; g < groups {
		groups = g
	}
	switch {
	case m == 1:
		ic.apply(z.Data, r.Data) // a lone column is laid out as a vector
	case groups <= 1:
		ic.sweepCols(z.Data, r.Data, m, 0, m)
	default:
		bound := func(g int) int {
			if g == groups {
				return m
			}
			return m * g / groups / icColGroup * icColGroup
		}
		parallel.Default().DoOp("ic0_apply", groups, func(g int) {
			ic.sweepCols(z.Data, r.Data, m, bound(g), bound(g+1))
		})
	}
	precondApplySeconds(m).Add(time.Since(t0).Seconds())
}

// sweepCols runs the substitutions on columns [c0, c1) of the
// row-major n-by-m blocks z and r: whole AVX2 lane groups through the
// vector row kernel, any remaining columns through the Go sweep.
func (ic *IC0) sweepCols(z, r []float64, m, c0, c1 int) {
	if v := ic0SIMD; v > 0 {
		if w := (c1 - c0) / v * v; w > 0 {
			ic.sweepSIMD(z, r, m, c0, c0+w)
			c0 += w
		}
	}
	if c0 < c1 {
		ic.sweep(z, r, m, c0, c1)
	}
}

// sweepSIMD is sweep through the AVX2 row kernel; c1-c0 must be a
// multiple of ic0SIMD.
func (ic *IC0) sweepSIMD(z, r []float64, m, c0, c1 int) {
	w := c1 - c0
	zc := &z[c0]
	for i := 0; i < ic.nb; i++ {
		lo, hi := ic.rowPtr[i], ic.rowPtr[i+1]-1
		vals, idx := blockRun(ic.blocks, ic.colIdx, lo, hi)
		o := 3*i*m + c0
		ic0RowAVX2(vals, idx, int(hi-lo), zc, &r[o], &z[o], &ic.diagChol[i][0], m, w, 0)
	}
	for j := ic.nb - 1; j >= 0; j-- {
		lo, hi := ic.tPtr[j], ic.tPtr[j+1]
		vals, idx := blockRun(ic.tBlocks, ic.tRow, lo, hi)
		o := 3*j*m + c0
		ic0RowAVX2(vals, idx, int(hi-lo), zc, &z[o], &z[o], &ic.diagChol[j][0], m, w, 1)
	}
}

// blockRun returns pointers to the first block and index of the run
// [lo, hi), or nils for an empty run (which may sit at the end of the
// arrays).
func blockRun(blocks []blas.Mat3, idx []int32, lo, hi int32) (*float64, *int32) {
	if lo == hi {
		return nil, nil
	}
	return &blocks[lo][0], &idx[lo]
}

// sweep runs the forward and backward substitutions on columns
// [c0, c1) of the row-major n-by-m blocks z and r. The three rows of
// the block row in flight accumulate in a 3*(c1-c0) scratch; every
// expression matches apply's term for term, which is what keeps each
// column bitwise equal to Apply.
func (ic *IC0) sweep(z, r []float64, m, c0, c1 int) {
	w := c1 - c0
	acc := make([]float64, 3*w)
	a0, a1, a2 := acc[:w], acc[w:2*w], acc[2*w:]
	// sub subtracts b times the three rows of block row j of z from
	// the accumulator.
	sub := func(b *blas.Mat3, j int) {
		o := 3*j*m + c0
		x0, x1, x2 := z[o:o+w], z[o+m:o+m+w], z[o+2*m:o+2*m+w]
		a1, a2 := a1[:len(a0)], a2[:len(a0)]
		x0, x1, x2 = x0[:len(a0)], x1[:len(a0)], x2[:len(a0)]
		for c := range a0 {
			v0, v1, v2 := x0[c], x1[c], x2[c]
			a0[c] -= b[0]*v0 + b[1]*v1 + b[2]*v2
			a1[c] -= b[3]*v0 + b[4]*v1 + b[5]*v2
			a2[c] -= b[6]*v0 + b[7]*v1 + b[8]*v2
		}
	}

	// Forward: L*y = r (y stored in z).
	for i := 0; i < ic.nb; i++ {
		o := 3*i*m + c0
		copy(a0, r[o:o+w])
		copy(a1, r[o+m:o+m+w])
		copy(a2, r[o+2*m:o+2*m+w])
		for k := ic.rowPtr[i]; k < ic.rowPtr[i+1]-1; k++ {
			sub(&ic.blocks[k], int(ic.colIdx[k]))
		}
		l := &ic.diagChol[i]
		z0, z1, z2 := z[o:o+w], z[o+m:o+m+w], z[o+2*m:o+2*m+w]
		z1, z2 = z1[:len(z0)], z2[:len(z0)]
		for c := range z0 {
			y0 := a0[c] / l[0]
			y1 := (a1[c] - l[3]*y0) / l[4]
			z0[c], z1[c], z2[c] = y0, y1, (a2[c]-l[6]*y0-l[7]*y1)/l[8]
		}
	}
	// Backward: L^T*z = y.
	for j := ic.nb - 1; j >= 0; j-- {
		o := 3*j*m + c0
		z0, z1, z2 := z[o:o+w], z[o+m:o+m+w], z[o+2*m:o+2*m+w]
		copy(a0, z0)
		copy(a1, z1)
		copy(a2, z2)
		for k := ic.tPtr[j]; k < ic.tPtr[j+1]; k++ {
			sub(&ic.tBlocks[k], int(ic.tRow[k]))
		}
		l := &ic.diagChol[j]
		z1, z2 = z1[:len(z0)], z2[:len(z0)]
		for c := range z0 {
			x2 := a2[c] / l[8]
			x1 := (a1[c] - l[7]*x2) / l[4]
			z0[c], z1[c], z2[c] = (a0[c]-l[3]*x1-l[6]*x2)/l[0], x1, x2
		}
	}
}
