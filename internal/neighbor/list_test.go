package neighbor

import (
	"math/rand"
	"testing"

	"repro/internal/blas"
)

func listPairs(l *List, pos []blas.Vec3) []Pair {
	var out []Pair
	l.ForEach(pos, func(p Pair) { out = append(out, p) })
	return out
}

func TestListMatchesDirectSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	box, cutoff := 12.0, 2.0
	pos := randPositions(rng, 300, box)
	l := NewList(box, cutoff, 0.5)
	got := listPairs(l, pos)
	want := Pairs(pos, box, cutoff)
	if !samePairs(got, want) {
		t.Fatalf("list pairs differ: %d vs %d", len(got), len(want))
	}
	if l.Rebuilds != 1 || l.Reuses != 0 {
		t.Fatalf("counters: %d rebuilds, %d reuses", l.Rebuilds, l.Reuses)
	}
}

func TestListReusedForSmallDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	box, cutoff, skin := 12.0, 2.0, 0.6
	pos := randPositions(rng, 200, box)
	l := NewList(box, cutoff, skin)
	listPairs(l, pos)

	// Drift everything by far less than skin/2 and query repeatedly:
	// no rebuild, results still exact.
	for step := 0; step < 5; step++ {
		for i := range pos {
			pos[i] = Wrap(pos[i].Add(blas.Vec3{0.01, -0.01, 0.005}), box)
		}
		got := listPairs(l, pos)
		want := Pairs(pos, box, cutoff)
		if !samePairs(got, want) {
			t.Fatalf("step %d: reused list wrong", step)
		}
	}
	if l.Rebuilds != 1 {
		t.Fatalf("rebuilt %d times for sub-skin drift", l.Rebuilds)
	}
	if l.Reuses != 5 {
		t.Fatalf("reuses = %d, want 5", l.Reuses)
	}
}

func TestListRebuildsPastSkin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	box, cutoff, skin := 12.0, 2.0, 0.4
	pos := randPositions(rng, 150, box)
	l := NewList(box, cutoff, skin)
	listPairs(l, pos)
	// Move one particle beyond skin/2.
	pos[7] = Wrap(pos[7].Add(blas.Vec3{skin, 0, 0}), box)
	got := listPairs(l, pos)
	want := Pairs(pos, box, cutoff)
	if !samePairs(got, want) {
		t.Fatal("post-rebuild pairs wrong")
	}
	if l.Rebuilds != 2 {
		t.Fatalf("rebuilds = %d, want 2", l.Rebuilds)
	}
}

func TestListCorrectUnderAdversarialDrift(t *testing.T) {
	// Random walks right at the skin boundary: every query must stay
	// exact whether or not the list decided to rebuild.
	rng := rand.New(rand.NewSource(4))
	box, cutoff, skin := 10.0, 1.5, 0.3
	pos := randPositions(rng, 120, box)
	l := NewList(box, cutoff, skin)
	for step := 0; step < 30; step++ {
		for i := range pos {
			d := blas.Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.05)
			pos[i] = Wrap(pos[i].Add(d), box)
		}
		got := listPairs(l, pos)
		want := Pairs(pos, box, cutoff)
		if !samePairs(got, want) {
			t.Fatalf("step %d: drifted list incorrect", step)
		}
	}
	if l.Rebuilds == 0 || l.Reuses == 0 {
		t.Fatalf("expected a mix of rebuilds (%d) and reuses (%d)", l.Rebuilds, l.Reuses)
	}
}

func TestListParticleCountChange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box := 10.0
	l := NewList(box, 2, 0.5)
	pos := randPositions(rng, 50, box)
	listPairs(l, pos)
	grown := randPositions(rng, 60, box)
	got := listPairs(l, grown)
	want := Pairs(grown, box, 2)
	if !samePairs(got, want) {
		t.Fatal("list did not handle particle count change")
	}
	if l.Rebuilds != 2 {
		t.Fatalf("rebuilds = %d", l.Rebuilds)
	}
}

func TestListDefaultSkin(t *testing.T) {
	l := NewList(10, 2, 0)
	if l.skin != 0.2 {
		t.Fatalf("default skin = %v, want 0.2", l.skin)
	}
	if l.Cutoff() != 2 {
		t.Fatalf("Cutoff = %v", l.Cutoff())
	}
}

// With per-particle reach, every query must still report each pair
// closer than min(cutoff, reach[i]+reach[j]), in direct-search order,
// across reuses and rebuilds — while caching far fewer candidates.
func TestListReachCoversEveryReachablePair(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	box, cutoff, skin := 12.0, 2.0, 0.3
	pos := randPositions(rng, 400, box)
	reach := make([]float64, len(pos))
	for i := range reach {
		reach[i] = 0.2 + 0.8*rng.Float64() // pair reach 0.4..2.0
	}
	within := func(p Pair) bool { return p.R < reach[p.I]+reach[p.J] }
	l := NewList(box, cutoff, skin)
	l.SetReach(reach)
	full := NewList(box, cutoff, skin)
	for step := 0; step < 8; step++ {
		var want, got []Pair
		full.ForEach(pos, func(p Pair) {
			if within(p) {
				want = append(want, p)
			}
		})
		l.ForEach(pos, func(p Pair) {
			if within(p) {
				got = append(got, p)
			}
		})
		if len(got) != len(want) {
			t.Fatalf("step %d: %d reachable pairs, want %d", step, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("step %d: pair %d = %+v, want %+v", step, k, got[k], want[k])
			}
		}
		for i := range pos {
			pos[i] = Wrap(pos[i].Add(blas.Vec3{0.04 * rng.NormFloat64(), 0.04 * rng.NormFloat64(), 0.04 * rng.NormFloat64()}), box)
		}
	}
	if l.Reuses == 0 || l.Rebuilds < 2 {
		t.Fatalf("want both reuses and rebuilds: %d reuses, %d rebuilds", l.Reuses, l.Rebuilds)
	}
	if len(l.candidates) >= len(full.candidates) {
		t.Fatalf("reach kept %d candidates, the full list %d", len(l.candidates), len(full.candidates))
	}
}
