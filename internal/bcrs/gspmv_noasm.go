//go:build !amd64

package bcrs

// Non-amd64 builds have no SIMD fast path; the pure-Go kernels are
// used for every m.
var simdWidth = 0

// HasAVX2 reports false: non-amd64 builds have no SIMD paths.
func HasAVX2() bool { return false }

// symSIMDWidth mirrors simdWidth for the symmetric kernels.
var symSIMDWidth = 0

func gspmvSIMD(rowPtr, colIdx []int32, vals, x, y []float64, m, lo, hi int) {
	panic("bcrs: gspmvSIMD without SIMD support")
}

func symGspmvSIMD(rowPtr, colIdx []int32, vals, x, y, part []float64, m, lo, hi int) {
	panic("bcrs: symGspmvSIMD without SIMD support")
}

func symGspmvSIMDTile(rowPtr, colIdx []int32, vals, x, y, part []float64, m, c0, c1, lo, hi int) {
	panic("bcrs: symGspmvSIMDTile without SIMD support")
}
