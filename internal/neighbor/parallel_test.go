package neighbor

import (
	"testing"

	"repro/internal/blas"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// Pair enumeration must be exactly thread-count-invariant: the binning
// and candidate-filter passes parallelize only the geometry, while
// emission order comes from the serial membership/candidate order.

func randomPositions(n int, box float64, seed uint64) []blas.Vec3 {
	r := rng.New(seed)
	pos := make([]blas.Vec3, n)
	for i := range pos {
		pos[i] = blas.Vec3{r.Float64() * box, r.Float64() * box, r.Float64() * box}
	}
	return pos
}

func TestForEachPairExactAcrossThreadCounts(t *testing.T) {
	const n, box, cutoff = 3000, 20.0, 1.5
	pos := randomPositions(n, box, 21)

	collect := func() []Pair {
		var out []Pair
		ForEachPair(pos, box, cutoff, func(p Pair) { out = append(out, p) })
		return out
	}
	want := collect() // serial pool
	if len(want) == 0 {
		t.Fatal("no pairs found; bad test geometry")
	}
	for _, threads := range []int{2, 4} {
		parallel.SetThreads(threads)
		got := collect()
		parallel.SetThreads(1)
		if len(got) != len(want) {
			t.Fatalf("threads=%d: %d pairs, serial %d", threads, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("threads=%d: pair %d = %+v, serial %+v", threads, k, got[k], want[k])
			}
		}
	}
}

func TestListForEachExactAcrossThreadCounts(t *testing.T) {
	const n, box, cutoff = 3000, 20.0, 1.5
	pos := randomPositions(n, box, 22)

	collect := func() []Pair {
		l := NewList(box, cutoff, 0)
		var out []Pair
		l.ForEach(pos, func(p Pair) { out = append(out, p) })
		// Query again without drift: the cached-candidate filter path.
		out = out[:0]
		l.ForEach(pos, func(p Pair) { out = append(out, p) })
		if l.Reuses != 1 {
			t.Fatalf("second query did not reuse the list (reuses=%d)", l.Reuses)
		}
		return out
	}
	want := collect()
	if len(want) == 0 {
		t.Fatal("no pairs found; bad test geometry")
	}
	for _, threads := range []int{2, 4} {
		parallel.SetThreads(threads)
		got := collect()
		parallel.SetThreads(1)
		if len(got) != len(want) {
			t.Fatalf("threads=%d: %d pairs, serial %d", threads, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("threads=%d: pair %d = %+v, serial %+v", threads, k, got[k], want[k])
			}
		}
	}
}

// Once its per-chunk buffers have grown, a reused query allocates
// nothing that scales with the candidate count, at any thread count.
func TestListForEachReusesBuffers(t *testing.T) {
	defer parallel.SetThreads(1)
	const n, box, cutoff = 3000, 20.0, 1.5
	pos := randomPositions(n, box, 23)
	for _, threads := range []int{1, 2, 4} {
		parallel.SetThreads(threads)
		l := NewList(box, cutoff, 0)
		l.ForEach(pos, func(Pair) {})
		if allocs := testing.AllocsPerRun(3, func() { l.ForEach(pos, func(Pair) {}) }); allocs > 8 {
			t.Fatalf("threads=%d: a reused query allocated %.0f times", threads, allocs)
		}
	}
}
