package solver

import (
	"math"
	"testing"

	"repro/internal/blas"
	"repro/internal/multivec"
	"repro/internal/parallel"
)

// refIC0Apply is the row-wise scatter substitution IC0.Apply used
// before the transposed factor existed: the backward sweep transposes
// each block on the fly and subtracts it from the pending rows. The
// precomputed-transpose sweeps must reproduce it bitwise.
func refIC0Apply(ic *IC0, z, r []float64) {
	for i := 0; i < ic.nb; i++ {
		acc := blas.Vec3{r[3*i], r[3*i+1], r[3*i+2]}
		for k := int(ic.rowPtr[i]); k < int(ic.rowPtr[i+1])-1; k++ {
			j := int(ic.colIdx[k])
			acc = acc.Sub(ic.blocks[k].MulV(blas.Vec3{z[3*j], z[3*j+1], z[3*j+2]}))
		}
		y := forward3(ic.diagChol[i], acc)
		z[3*i], z[3*i+1], z[3*i+2] = y[0], y[1], y[2]
	}
	for i := ic.nb - 1; i >= 0; i-- {
		x := backward3(ic.diagChol[i], blas.Vec3{z[3*i], z[3*i+1], z[3*i+2]})
		z[3*i], z[3*i+1], z[3*i+2] = x[0], x[1], x[2]
		for k := int(ic.rowPtr[i]); k < int(ic.rowPtr[i+1])-1; k++ {
			j := int(ic.colIdx[k])
			w := ic.blocks[k].Transpose3().MulV(x)
			z[3*j] -= w[0]
			z[3*j+1] -= w[1]
			z[3*j+2] -= w[2]
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestIC0ApplyMatchesRowScatterReference(t *testing.T) {
	a := spdMatrix(31, 200, 9)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	r := randVec(32, a.N())
	got := make([]float64, a.N())
	want := make([]float64, a.N())
	ic.Apply(got, r)
	refIC0Apply(ic, want, r)
	if !sameBits(got, want) {
		t.Fatal("Apply differs bitwise from the row-scatter reference")
	}
	// In place (z aliasing r) gives the same bits.
	inPlace := append([]float64(nil), r...)
	ic.Apply(inPlace, inPlace)
	if !sameBits(inPlace, want) {
		t.Fatal("in-place Apply differs")
	}
}

// TestIC0ApplyMultiMatchesApply pins every column of ApplyMulti to a
// lone Apply bitwise, across the kernel widths and thread counts the
// block solves use — including odd m, whose column groups split
// unevenly and leave columns for the Go sweep next to the AVX2 lane
// groups — with the SIMD sweep on (where the host has it) and off.
func TestIC0ApplyMultiMatchesApply(t *testing.T) {
	defer parallel.SetThreads(1)
	saved := ic0SIMD
	defer func() { ic0SIMD = saved }()
	a := spdMatrix(33, 180, 10)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	for _, simd := range []int{saved, 0} {
		ic0SIMD = simd
		for _, threads := range []int{1, 2, 3} {
			parallel.SetThreads(threads)
			for _, m := range []int{1, 2, 4, 5, 8, 16, 32} {
				r := multivec.New(n, m)
				copy(r.Data, randVec(int64(40+m), n*m))
				z := multivec.New(n, m)
				ic.ApplyMulti(z, r)
				rc, want := make([]float64, n), make([]float64, n)
				for j := 0; j < m; j++ {
					r.Col(j, rc)
					ic.Apply(want, rc)
					if !sameBits(z.ColVector(j), want) {
						t.Fatalf("simd=%d threads=%d m=%d: column %d differs bitwise from Apply", simd, threads, m, j)
					}
				}
				// In place as well.
				ic.ApplyMulti(r, r)
				if !sameBits(r.Data, z.Data) {
					t.Fatalf("simd=%d threads=%d m=%d: in-place ApplyMulti differs", simd, threads, m)
				}
			}
		}
	}
}

// applyOnly hides a preconditioner's block form, forcing BlockCG onto
// the column-by-column loop.
type applyOnly struct{ p Preconditioner }

func (a applyOnly) Apply(z, r []float64) { a.p.Apply(z, r) }

func TestBlockCGBlockPrecondMatchesColumnLoop(t *testing.T) {
	a := spdMatrix(34, 150, 8)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	const m = 6
	b := multivec.New(a.N(), m)
	copy(b.Data, randVec(35, a.N()*m))
	xBlock := multivec.New(a.N(), m)
	stBlock := BlockCG(a, xBlock, b, Options{Tol: 1e-10, Precond: ic})
	xCol := multivec.New(a.N(), m)
	stCol := BlockCG(a, xCol, b, Options{Tol: 1e-10, Precond: applyOnly{ic}})
	if !stBlock.Converged || !stCol.Converged {
		t.Fatalf("not converged: block %+v, column loop %+v", stBlock.Stats, stCol.Stats)
	}
	if stBlock.Iterations != stCol.Iterations {
		t.Fatalf("iterations %d (block) vs %d (column loop)", stBlock.Iterations, stCol.Iterations)
	}
	if !sameBits(xBlock.Data, xCol.Data) {
		t.Fatal("BlockCG through ApplyMulti differs bitwise from the column loop")
	}
}

// forward3 solves L*y = b for a 3x3 lower factor.
func forward3(l blas.Mat3, b blas.Vec3) blas.Vec3 {
	var y blas.Vec3
	y[0] = b[0] / l[0]
	y[1] = (b[1] - l[3]*y[0]) / l[4]
	y[2] = (b[2] - l[6]*y[0] - l[7]*y[1]) / l[8]
	return y
}

// backward3 solves L^T*x = y for a 3x3 lower factor.
func backward3(l blas.Mat3, y blas.Vec3) blas.Vec3 {
	var x blas.Vec3
	x[2] = y[2] / l[8]
	x[1] = (y[1] - l[7]*x[2]) / l[4]
	x[0] = (y[0] - l[3]*x[1] - l[6]*x[2]) / l[0]
	return x
}
