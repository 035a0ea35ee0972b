package hydro

import (
	"math"
	"testing"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/particles"
)

// refBuild is the assembly as it was before collection filtered on
// the gap cutoff: every pair within SearchCutoff is collected, then
// the tensor pass skips the non-interacting ones.
func refBuild(sys *particles.System, opt Options) *bcrs.Matrix {
	opt = opt.WithDefaults()
	b := bcrs.NewBuilder(sys.N)
	b.AddDiagScaled(FarFieldCoefficients(sys, opt))
	neighbor.ForEachPair(sys.Pos, sys.Box, SearchCutoff(sys, opt), func(p neighbor.Pair) {
		a1, a2 := sys.Radius[p.I], sys.Radius[p.J]
		xi := 2 * (p.R - a1 - a2) / (a1 + a2)
		if xi >= opt.CutoffXi || p.R <= 0 {
			return
		}
		a := PairTensor(a1, a2, xi, p.D.Scale(1/p.R), opt)
		if a.Zero3() {
			return
		}
		neg := a.ScaleM(-1)
		b.AddBlock(p.I, p.I, a)
		b.AddBlock(p.J, p.J, a)
		b.AddBlock(p.I, p.J, neg)
		b.AddBlock(p.J, p.I, neg)
	})
	return b.Build()
}

// sameMatrix reports whether two BCRS matrices have identical
// structure and bitwise-identical blocks.
func sameMatrix(a, b *bcrs.Matrix) bool {
	if a.NB() != b.NB() || a.NNZB() != b.NNZB() {
		return false
	}
	for i := 0; i < a.NB(); i++ {
		alo, ahi := a.RowBlocks(i)
		blo, bhi := b.RowBlocks(i)
		if alo != blo || ahi != bhi {
			return false
		}
		for k := alo; k < ahi; k++ {
			if a.BlockCol(k) != b.BlockCol(k) {
				return false
			}
			x, y := a.BlockAt(k), b.BlockAt(k)
			for q := range x {
				if math.Float64bits(x[q]) != math.Float64bits(y[q]) {
					return false
				}
			}
		}
	}
	return true
}

// Build, BuildWithList (fresh and reused list, with and without
// per-particle reach pruning) and the collect-all reference must
// assemble bitwise-identical matrices on a dense polydisperse packing
// — where most searched pairs lie beyond their own gap cutoff — at any
// thread count.
func TestBuildAndBuildWithListBitwiseIdentical(t *testing.T) {
	defer parallel.SetThreads(1)
	sys, err := particles.New(particles.Options{N: 800, Phi: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Phi: 0.5}.WithDefaults()
	cutoff := SearchCutoff(sys, opt)
	for _, threads := range []int{1, 2} {
		parallel.SetThreads(threads)
		s := sys.Clone()
		list := neighbor.NewList(s.Box, cutoff, 0.05*cutoff)
		reached := neighbor.NewList(s.Box, cutoff, 0.05*cutoff)
		reached.SetReach(Reach(s, opt))
		for step := 0; step < 4; step++ {
			want := refBuild(s, opt)
			if got := Build(s, opt); !sameMatrix(got, want) {
				t.Fatalf("threads=%d step %d: Build differs from the reference", threads, step)
			}
			if got := BuildWithList(s, opt, list); !sameMatrix(got, want) {
				t.Fatalf("threads=%d step %d: BuildWithList differs from the reference", threads, step)
			}
			if got := BuildWithList(s, opt, reached); !sameMatrix(got, want) {
				t.Fatalf("threads=%d step %d: reach-pruned BuildWithList differs from the reference", threads, step)
			}
			for i := range s.Pos {
				s.Pos[i] = s.Pos[i].Add(blas.Vec3{0.03, -0.02, 0.01 * float64(i%3)})
			}
		}
		if list.Reuses == 0 || reached.Reuses == 0 {
			t.Fatalf("threads=%d: a Verlet list was never reused", threads)
		}
	}
}
