//go:build amd64

package solver

import "repro/internal/bcrs"

// ic0RowAVX2 runs one block row of an IC(0) substitution sweep over w
// columns (w a positive multiple of 4), four columns per ymm lane
// group. Each lane carries one column's scalar recurrence in exactly
// the order of the pure-Go sweep — products and sums rounded one at a
// time, no FMA — so every column is bitwise-identical to IC0.Apply.
//
//   - vals, idx, nblk: the row's off-diagonal blocks (9 float64 each)
//     and their block indices into z (nil when nblk is 0).
//   - z: &z[c0], the group's first column of the full multivector.
//   - src, dst: the first of the three source and destination rows of
//     this block row at column c0 (row stride m).
//   - l: the row's diagonal Cholesky block.
//   - backward: 0 solves L_ii y = acc (forward3), 1 solves
//     L_ii^T x = acc (backward3).
//
// Implemented in ic0_amd64.s.
func ic0RowAVX2(vals *float64, idx *int32, nblk int, z, src, dst, l *float64, m, w, backward int)

// ic0SIMD is the column granularity of the AVX2 sweep: 4 when the
// host supports it, else 0. Tests may clear it to force the pure-Go
// sweep.
var ic0SIMD = func() int {
	if bcrs.HasAVX2() {
		return 4
	}
	return 0
}()
