//go:build amd64

package bcrs

// The wide-m GSPMV kernels have an AVX2 fast path (gspmv_amd64.s)
// that vectorizes across the right-hand sides: 4 columns per ymm
// lane group, each lane running the scalar kernels' exact operation
// order, so the SIMD result is bitwise-identical to the pure-Go
// kernels. This is the paper's own implementation strategy — its
// generated basic kernels vectorize the m dimension with SSE/AVX
// intrinsics (Section IV-A) — and it is what moves the compute bound
// F in the r(m) model from scalar to SIMD throughput.

// Implemented in gspmv_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)
func gspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x *float64, yrow *float64, m int)

// Implemented in sym_amd64.s.
func symGspmvRowAVX2(vals *float64, colIdx *int32, nblk int, x, y, part *float64, i, hi, m, c0, c1 int)

// simdWidth is 8 (columns per inner-kernel call) when the host and
// OS support AVX2, else 0. Tests may clear it to force the pure-Go
// kernels.
var simdWidth = detectSIMD()

// symSIMDWidth is the symmetric kernel's column-group granularity: 2
// when AVX2 and FMA3 are available. The asm kernel runs 4-wide ymm
// groups with a 2-wide xmm tail, so it serves every even column count
// — full-width m = 2 included — while the symmetric body's three live
// vector sets (accumulators, x row i, x row j) keep it narrower than
// the general kernel's 8. The scalar DAG is FMA-based, so the asm
// path additionally needs the FMA extension. Tests may clear this to
// force the pure-Go kernels.
var symSIMDWidth = detectSymSIMD()

func detectSymSIMD() int {
	if detectSIMD() == 0 {
		return 0
	}
	// The symmetric kernels' operation order is an FMA chain
	// (math.FMA in Go); matching it bitwise in asm needs FMA3.
	_, _, c1, _ := cpuidex(1, 0)
	const fma = 1 << 12
	if c1&fma == 0 {
		return 0
	}
	return 2
}

// HasAVX2 reports whether the host and OS support the AVX2 kernels,
// for packages that carry their own SIMD paths (solver.IC0).
func HasAVX2() bool { return detectSIMD() > 0 }

func detectSIMD() int {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return 0
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return 0
	}
	// OS must save the full ymm state (XCR0 bits 1 and 2).
	xlo, _ := xgetbv0()
	if xlo&0x6 != 0x6 {
		return 0
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	if b7&avx2 == 0 {
		return 0
	}
	return 8
}

// gspmvSIMD runs the AVX2 row kernel over [lo, hi). m must be a
// positive multiple of 8.
func gspmvSIMD(rowPtr, colIdx []int32, vals, x, y []float64, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		k0, k1 := int(rowPtr[i]), int(rowPtr[i+1])
		yrow := &y[i*BlockDim*m]
		if k1 == k0 {
			clear(y[i*BlockDim*m : (i+1)*BlockDim*m])
			continue
		}
		gspmvRowAVX2(&vals[k0*BlockSize], &colIdx[k0], k1-k0, &x[0], yrow, m)
	}
}

// symGspmvSIMD runs the AVX2 symmetric row kernel full-width over
// [lo, hi), honoring the symKernel contract (accumulate into
// pre-zeroed y rows, out-of-range scatter into part). m must be a
// positive multiple of symSIMDWidth.
func symGspmvSIMD(rowPtr, colIdx []int32, vals, x, y, part []float64, m, lo, hi int) {
	symGspmvSIMDTile(rowPtr, colIdx, vals, x, y, part, m, 0, m, lo, hi)
}

// symGspmvSIMDTile runs the AVX2 symmetric row kernel over columns
// [c0, c1) of a width-m multiply — the cache-blocked schedule's tile
// pass, with x/y/part addressed at the full m-column stride. c1 - c0
// must be a positive multiple of symSIMDWidth.
func symGspmvSIMDTile(rowPtr, colIdx []int32, vals, x, y, part []float64, m, c0, c1, lo, hi int) {
	var pp *float64
	if len(part) > 0 {
		pp = &part[0]
	}
	for i := lo; i < hi; i++ {
		k0, k1 := int(rowPtr[i]), int(rowPtr[i+1])
		if k1 == k0 {
			continue // accumulate semantics: empty rows contribute nothing
		}
		symGspmvRowAVX2(&vals[k0*BlockSize], &colIdx[k0], k1-k0, &x[0], &y[0], pp, i, hi, m, c0, c1)
	}
}
