//go:build !amd64

package solver

// ic0SIMD is 0: non-amd64 builds run the pure-Go sweep only.
var ic0SIMD = 0

func ic0RowAVX2(vals *float64, idx *int32, nblk int, z, src, dst, l *float64, m, w, backward int) {
	panic("solver: ic0RowAVX2 without SIMD support")
}
