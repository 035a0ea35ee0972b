package solver

import (
	"math"
	"testing"

	"repro/internal/parallel"
)

// staggeredTols are spread wide enough that the columns of a batch
// retire at different iterations even with IC(0) cutting the counts
// to a handful, so the survivors repack across kernel widths.
var staggeredTols = [...]float64{1e-1, 1e-3, 1e-6, 1e-8, 1e-11, 1e-14}

func staggeredTol(j int) float64 { return staggeredTols[j%len(staggeredTols)] }

// TestMultiCGSharedIC0BitwiseMatchesLonePCG: with one IC(0) factor
// shared by every column, MultiCG preconditions the active columns in
// one ApplyMulti per iteration, and every column must still be
// bitwise-identical to a lone preconditioned CG solve — through
// retirement and repacking, at 1 and 2 threads, with one workspace
// reused across all the calls.
func TestMultiCGSharedIC0BitwiseMatchesLonePCG(t *testing.T) {
	defer parallel.SetThreads(1)
	a := spdMatrix(3, 150, 6)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	ws := NewMultiCGWorkspace()
	for _, threads := range []int{1, 2} {
		parallel.SetThreads(threads)
		for _, q := range []int{1, 2, 3, 5, 8, 17, 32} {
			xs := make([][]float64, q)
			bs := make([][]float64, q)
			opts := make([]Options, q)
			for j := 0; j < q; j++ {
				xs[j] = make([]float64, n)
				bs[j] = testRHS(n, uint64(500+j))
				opts[j] = Options{Tol: staggeredTol(j), Precond: ic}
			}
			stats := MultiCGWith(ws, a, xs, bs, opts)
			iters := map[int]bool{}
			for j := 0; j < q; j++ {
				ref := make([]float64, n)
				rst := CG(a, ref, testRHS(n, uint64(500+j)), Options{Tol: staggeredTol(j), Precond: ic})
				if !stats[j].Converged || !rst.Converged {
					t.Fatalf("threads=%d q=%d col=%d: converged fused=%v alone=%v",
						threads, q, j, stats[j].Converged, rst.Converged)
				}
				if stats[j].Iterations != rst.Iterations || stats[j].MatMuls != rst.MatMuls {
					t.Fatalf("threads=%d q=%d col=%d: iters/matmuls fused=%d/%d alone=%d/%d",
						threads, q, j, stats[j].Iterations, stats[j].MatMuls, rst.Iterations, rst.MatMuls)
				}
				if math.Float64bits(stats[j].Residual) != math.Float64bits(rst.Residual) {
					t.Fatalf("threads=%d q=%d col=%d: residual fused=%v alone=%v",
						threads, q, j, stats[j].Residual, rst.Residual)
				}
				if !sameBits(xs[j], ref) {
					t.Fatalf("threads=%d q=%d col=%d: solution differs bitwise from lone PCG", threads, q, j)
				}
				iters[rst.Iterations] = true
			}
			if q >= 5 && len(iters) < 3 {
				t.Fatalf("threads=%d q=%d: only %d distinct iteration counts; the tolerances do not stagger retirement",
					threads, q, len(iters))
			}
		}
	}
}

// TestMultiCGSharedIC0AppliesOncePerIteration pins the accounting:
// the fused path feeds solver_precond_apply_seconds_total{m} once per
// block apply of the m active columns, not once per column.
func TestMultiCGSharedIC0AppliesOncePerIteration(t *testing.T) {
	a := spdMatrix(5, 120, 6)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	const q = 8
	xs := make([][]float64, q)
	bs := make([][]float64, q)
	opts := make([]Options, q)
	for j := 0; j < q; j++ {
		// Identical systems retire together: every apply is 8 wide.
		xs[j] = make([]float64, n)
		bs[j] = testRHS(n, 77)
		opts[j] = Options{Precond: ic}
	}
	one, eight := precondApplySeconds(1).Value(), precondApplySeconds(q).Value()
	stats := MultiCG(a, xs, bs, opts)
	if !stats[0].Converged || stats[0].Iterations < 2 {
		t.Fatalf("solve: %+v", stats[0])
	}
	if got := precondApplySeconds(1).Value(); got != one {
		t.Errorf("m=1 apply counter moved by %g: the fused path applied column by column", got-one)
	}
	if got := precondApplySeconds(q).Value(); got <= eight {
		t.Errorf("m=%d apply counter did not move", q)
	}
}

// TestMultiCGDistinctPreconditionersApplyPerColumn: columns naming
// different preconditioners (or one without a block form) keep the
// per-column path and still match their lone solves.
func TestMultiCGDistinctPreconditionersApplyPerColumn(t *testing.T) {
	a := spdMatrix(6, 100, 6)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	n := a.N()
	precs := []Preconditioner{ic, NewBlockJacobi(a), nil, applyOnly{ic}}
	xs := make([][]float64, len(precs))
	bs := make([][]float64, len(precs))
	opts := make([]Options, len(precs))
	for j, p := range precs {
		xs[j] = make([]float64, n)
		bs[j] = testRHS(n, uint64(40+j))
		opts[j] = Options{Tol: 1e-9, Precond: p}
	}
	MultiCG(a, xs, bs, opts)
	for j, p := range precs {
		ref := make([]float64, n)
		CG(a, ref, testRHS(n, uint64(40+j)), Options{Tol: 1e-9, Precond: p})
		if !sameBits(xs[j], ref) {
			t.Fatalf("col=%d: solution differs bitwise from lone solve", j)
		}
	}
	if sharedBlockPrecond([]Options{{Precond: applyOnly{ic}}, {Precond: applyOnly{ic}}}) != nil {
		t.Fatal("a value-typed preconditioner without a block form must not be shared")
	}
}
