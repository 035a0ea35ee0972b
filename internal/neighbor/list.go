package neighbor

import (
	"math"

	"repro/internal/blas"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// List observability: the rebuild/reuse split determines how well the
// Verlet amortization is working, which the paper folds into its
// "Construct" phase. Counted across all lists in the process.
var (
	obsRebuilds = obs.Default.Counter("neighbor_list_rebuilds_total")
	obsReuses   = obs.Default.Counter("neighbor_list_reuses_total")
)

// List is a Verlet neighbor list: a cached set of candidate pairs
// found with an enlarged search radius (cutoff + skin), valid as long
// as no particle has moved more than skin/2 since the list was built.
// While valid, pair queries filter the cached candidates against the
// current positions instead of re-binning the whole system — the
// amortization the paper leans on when it folds partitioning into
// "neighbor list construction ... amortize[d] over several time
// steps" (Section IV-A2). For Stokesian dynamics steps, whose
// displacements are a tiny fraction of the interaction range, one
// build serves many steps.
type List struct {
	box    float64
	cutoff float64
	skin   float64

	refPos []blas.Vec3
	// candidates are the pairs within cutoff+skin of the reference
	// configuration; indices only — geometry is recomputed per query.
	candidates [][2]int32

	// reach, when set (SetReach), prunes the candidates to the pairs
	// that can come within reach[i]+reach[j] of each other.
	reach []float64

	// wrapped holds the query positions mapped into the box, once per
	// particle, reused across queries.
	wrapped []blas.Vec3

	// hits holds the pairs within the cutoff of each fixed candidate
	// chunk of the parallel filter, reused across queries. Only those
	// pairs keep their geometry, not every candidate.
	hits [][]Pair

	// Rebuilds and Reuses count list constructions and avoided ones,
	// for tests and instrumentation.
	Rebuilds, Reuses int
}

// NewList creates a list for a box and interaction cutoff. skin <= 0
// defaults to 10% of the cutoff.
func NewList(box, cutoff, skin float64) *List {
	if box <= 0 || cutoff <= 0 {
		panic("neighbor: box and cutoff must be positive")
	}
	if skin <= 0 {
		skin = 0.1 * cutoff
	}
	return &List{box: box, cutoff: cutoff, skin: skin}
}

// Cutoff returns the interaction cutoff the list serves.
func (l *List) Cutoff() float64 { return l.cutoff }

// SetReach gives each particle an interaction reach: pair (i, j) can
// only matter to the caller while its separation is below
// reach[i]+reach[j] (for spheres, a radius-proportional range). The
// list then keeps as candidates only the pairs that can come within
// that range before the next rebuild, instead of every pair within the
// uniform cutoff — for a polydisperse packing, whose cutoff is sized
// for the largest spheres, a small fraction. Queries still report
// every pair closer than min(cutoff, reach[i]+reach[j]), in the same
// order as without reach; pairs beyond their reach but within the
// cutoff may or may not be reported, so the caller filters them. The
// next query rebuilds the candidates.
func (l *List) SetReach(reach []float64) {
	l.reach = append(l.reach[:0], reach...)
	l.refPos = nil
}

// valid reports whether the cached candidates still cover every pair
// within cutoff of pos: true when the maximum single-particle drift
// from the reference is below skin/2 (two particles approaching each
// other close at most 2 * skin/2 = skin, the search margin).
func (l *List) valid(pos []blas.Vec3) bool {
	if l.refPos == nil || len(l.refPos) != len(pos) {
		return false
	}
	limit := l.skin / 2
	limit2 := limit * limit
	// Blocked OR-reduction: each chunk reports whether any of its
	// particles drifted past the limit. The combine is order-
	// insensitive for booleans, so the verdict is identical for any
	// thread count.
	drifted := parallel.Reduce(parallel.Default(), len(pos), binGrain, func(lo, hi int) bool {
		for i := lo; i < hi; i++ {
			d := MinImage(Wrap(pos[i], l.box).Sub(Wrap(l.refPos[i], l.box)), l.box)
			if d.Dot(d) >= limit2 {
				return true
			}
		}
		return false
	}, func(a, b bool) bool { return a || b })
	return !drifted
}

// rebuild refreshes the candidate set from pos.
func (l *List) rebuild(pos []blas.Vec3) {
	if l.reach != nil && len(l.reach) != len(pos) {
		panic("neighbor: reach length differs from the particle count")
	}
	l.refPos = append(l.refPos[:0], pos...)
	l.candidates = l.candidates[:0]
	ForEachPair(pos, l.box, l.cutoff+l.skin, func(p Pair) {
		// Drift below skin/2 per particle moves a pair by less than
		// skin, so a pair beyond reach+skin now stays beyond reach
		// until the next rebuild; the relative slack absorbs rounding.
		if l.reach != nil && p.R >= (l.reach[p.I]+l.reach[p.J]+l.skin)*(1+1e-9) {
			return
		}
		l.candidates = append(l.candidates, [2]int32{int32(p.I), int32(p.J)})
	})
	l.Rebuilds++
	obsRebuilds.Inc()
}

// filterChunk is the number of candidates per chunk of the parallel
// filter. The chunking depends only on the candidate count, so the
// emission order never depends on the thread count.
const filterChunk = 8192

// ForEach visits every pair of pos with minimum-image distance below
// the cutoff, reusing the cached candidates when the configuration
// has not drifted past the skin.
func (l *List) ForEach(pos []blas.Vec3, fn func(Pair)) {
	if !l.valid(pos) {
		l.rebuild(pos)
	} else {
		l.Reuses++
		obsReuses.Inc()
	}
	n := len(pos)
	if cap(l.wrapped) < n {
		l.wrapped = make([]blas.Vec3, n)
	}
	w := l.wrapped[:n]
	parallel.Default().ForOp("neighbor_wrap", n, binGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w[i] = Wrap(pos[i], l.box)
		}
	})
	cutoff2 := l.cutoff * l.cutoff
	nc := len(l.candidates)
	chunks := (nc + filterChunk - 1) / filterChunk
	for len(l.hits) < chunks {
		l.hits = append(l.hits, nil)
	}
	// Geometry in parallel (each chunk appends the pairs within the
	// cutoff to its own buffer), emission serial in chunk order — callers see the
	// same pair sequence regardless of thread count.
	parallel.Default().DoOp("neighbor_filter", chunks, func(c int) {
		lo, hi := c*filterChunk, min((c+1)*filterChunk, nc)
		hits := l.hits[c][:0]
		for _, cand := range l.candidates[lo:hi] {
			d := MinImage(w[cand[1]].Sub(w[cand[0]]), l.box)
			if r2 := d.Dot(d); r2 < cutoff2 {
				hits = append(hits, Pair{I: int(cand[0]), J: int(cand[1]), D: d, R: math.Sqrt(r2)})
			}
		}
		l.hits[c] = hits
	})
	for _, hits := range l.hits[:chunks] {
		for _, p := range hits {
			fn(p)
		}
	}
}
