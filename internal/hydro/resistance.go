package hydro

import (
	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/particles"
)

// Options configures resistance-matrix assembly.
type Options struct {
	// Viscosity is the solvent viscosity mu (1 in simulation units).
	Viscosity float64
	// CutoffXi is the dimensionless gap beyond which the lubrication
	// interaction is dropped. The paper varied this cutoff to
	// construct matrices with different nnzb/nb (Table I). Default 1.
	CutoffXi float64
	// MinXi floors the dimensionless gap, regularizing the 1/xi
	// singularity for (numerically) touching spheres. Default 1e-4.
	MinXi float64
	// Phi is the volume occupancy used for the far-field effective
	// viscosity muF.
	Phi float64
}

// WithDefaults fills zero fields.
func (o Options) WithDefaults() Options {
	if o.Viscosity == 0 {
		o.Viscosity = 1
	}
	if o.CutoffXi == 0 {
		o.CutoffXi = 1
	}
	if o.MinXi == 0 {
		o.MinXi = 1e-4
	}
	return o
}

// PairTensor returns the 3x3 translational lubrication resistance
// tensor A for a pair of spheres with radii a1, a2, unit line-of-
// centers direction d, and dimensionless gap xi. The resistance
// functions are shifted to vanish continuously at the cutoff and
// clamped nonnegative so each pair contribution stays PSD.
func PairTensor(a1, a2, xi float64, d blas.Vec3, opt Options) blas.Mat3 {
	opt = opt.WithDefaults()
	if xi < opt.MinXi {
		xi = opt.MinXi
	}
	beta := a2 / a1
	xc := opt.CutoffXi
	xa := XA(xi, beta) - XA(xc, beta)
	ya := YA(xi, beta) - YA(xc, beta)
	if xa < 0 {
		xa = 0
	}
	if ya < 0 {
		ya = 0
	}
	scale := 6 * 3.141592653589793 * opt.Viscosity * (a1 + a2) / 2
	return blas.AxialTensor(scale*xa, scale*ya, d)
}

// FarFieldCoefficients returns the per-particle diagonal coefficients
// muF_i = 6*pi*mu*a_i*eta_r(phi): the Stokes drag of each sphere in
// an effective medium of relative viscosity eta_r.
func FarFieldCoefficients(sys *particles.System, opt Options) []float64 {
	opt = opt.WithDefaults()
	eta := EffectiveViscosity(opt.Phi)
	out := make([]float64, sys.N)
	for i, a := range sys.Radius {
		out[i] = 6 * 3.141592653589793 * opt.Viscosity * a * eta
	}
	return out
}

// SearchCutoff returns the center-to-center distance below which a
// pair can interact: surfaces closer than CutoffXi*(a1+a2)/2 for the
// largest spheres in the system.
func SearchCutoff(sys *particles.System, opt Options) float64 {
	opt = opt.WithDefaults()
	amax := sys.MaxRadius()
	return 2 * amax * (1 + opt.CutoffXi/2)
}

// Reach returns each particle's interaction reach for a Verlet list
// (neighbor.List.SetReach): a_i*(1+CutoffXi/2), so that a pair's gap
// is inside CutoffXi when its separation is below reach[i]+reach[j]
// (up to rounding, which the list's skin margin absorbs).
// SearchCutoff is twice the largest reach.
func Reach(sys *particles.System, opt Options) []float64 {
	opt = opt.WithDefaults()
	out := make([]float64, sys.N)
	for i, a := range sys.Radius {
		out[i] = a * (1 + opt.CutoffXi/2)
	}
	return out
}

// Build assembles the sparse resistance matrix R = muF*I + Rlub for
// the current particle configuration. The result is symmetric
// positive definite: muF*I is positive diagonal and every pair term
// is PSD.
func Build(sys *particles.System, opt Options) *bcrs.Matrix {
	opt = opt.WithDefaults()
	return assemble(sys, opt, func(fn func(neighbor.Pair)) {
		neighbor.ForEachPair(sys.Pos, sys.Box, SearchCutoff(sys, opt), fn)
	})
}

// BuildWithList is Build using a Verlet neighbor list, which skips
// the cell-list rebuild while the configuration has drifted less than
// the list's skin — the dominant assembly cost across consecutive SD
// steps. The list must have been created with the system's box and at
// least SearchCutoff(sys, opt) as its cutoff.
func BuildWithList(sys *particles.System, opt Options, list *neighbor.List) *bcrs.Matrix {
	opt = opt.WithDefaults()
	if list.Cutoff() < SearchCutoff(sys, opt) {
		panic("hydro: neighbor list cutoff shorter than the interaction range")
	}
	return assemble(sys, opt, func(fn func(neighbor.Pair)) {
		list.ForEach(sys.Pos, fn)
	})
}

// pairGrain is the minimum pairs per parallel chunk in assembly: each
// pair costs two resistance-function evaluations, so chunks this size
// comfortably amortize a dispatch.
const pairGrain = 256

// assemble builds the matrix from any pair source in three phases:
// collect the interacting pairs (serial — the source order defines
// the matrix build order), evaluate the lubrication tensors (parallel
// — each pair writes its own slot), and insert the blocks (serial, in
// pair order). Because insertion order never depends on the thread
// count, the assembled matrix is bitwise-identical for any pool size.
//
// The pair source searches out to SearchCutoff, which is sized for the
// largest spheres; for a polydisperse packing most of those pairs are
// beyond their own gap cutoff (about 95% at phi=0.5 with the Table IV
// radii), so collection drops them at once instead of carrying them
// through the tensor pass.
func assemble(sys *particles.System, opt Options, forEach func(func(neighbor.Pair))) *bcrs.Matrix {
	var pairs []neighbor.Pair
	var gaps []float64
	forEach(func(p neighbor.Pair) {
		if xi, ok := gap(sys, opt, p); ok {
			pairs = append(pairs, p)
			gaps = append(gaps, xi)
		}
	})

	tens := make([]blas.Mat3, len(pairs))
	keep := make([]bool, len(pairs))
	parallel.Default().ForOp("hydro_pair_tensors", len(pairs), pairGrain, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			p := pairs[k]
			a := PairTensor(sys.Radius[p.I], sys.Radius[p.J], gaps[k], p.D.Scale(1/p.R), opt)
			if a.Zero3() {
				continue
			}
			tens[k] = a
			keep[k] = true
		}
	})

	b := bcrs.NewBuilder(sys.N)
	b.Grow(sys.N + 4*len(pairs))
	b.AddDiagScaled(FarFieldCoefficients(sys, opt))
	for k, p := range pairs {
		if !keep[k] {
			continue
		}
		a := tens[k]
		neg := a.ScaleM(-1)
		b.AddBlock(p.I, p.I, a)
		b.AddBlock(p.J, p.J, a)
		b.AddBlock(p.I, p.J, neg)
		b.AddBlock(p.J, p.I, neg)
	}
	return b.Build()
}

// gap returns the dimensionless surface gap xi of a pair and whether
// it lies inside the lubrication cutoff.
func gap(sys *particles.System, opt Options, p neighbor.Pair) (float64, bool) {
	a1, a2 := sys.Radius[p.I], sys.Radius[p.J]
	xi := 2 * (p.R - a1 - a2) / (a1 + a2)
	return xi, xi < opt.CutoffXi && p.R > 0
}

// MinFarField returns the smallest diagonal far-field coefficient —
// a rigorous lower bound on the spectrum of R, used to bracket the
// eigenvalue interval for the Chebyshev square root.
func MinFarField(sys *particles.System, opt Options) float64 {
	c := FarFieldCoefficients(sys, opt)
	m := c[0]
	for _, v := range c[1:] {
		if v < m {
			m = v
		}
	}
	return m
}
