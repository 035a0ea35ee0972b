package sd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/parallel"
	"repro/internal/particles"
)

// plainChecksum is the trajectory checksum of precondRun under
// PlainCG: the value the unpreconditioned MRHS stepper produced before
// the chunk preconditioner existed, at every thread count.
const plainChecksum = 0xe15ff16bb21235a3

// precondRun integrates 16 MRHS steps (two chunks of 8) on a dense
// 300-particle packing and returns the simulation.
func precondRun(t *testing.T, plain bool, threads int) *Simulation {
	t.Helper()
	sys, err := particles.New(particles.Options{N: 300, Phi: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim := New(sys, hydro.Options{}, core.Config{Dt: 2, M: 8, Seed: 5, PlainCG: plain}, threads)
	if err := sim.RunMRHS(16); err != nil {
		t.Fatal(err)
	}
	return sim
}

func TestPlainCGReproducesUnpreconditionedChecksum(t *testing.T) {
	defer parallel.SetThreads(1)
	for _, threads := range []int{1, 2} {
		if got := precondRun(t, true, threads).System().Checksum(); got != plainChecksum {
			t.Fatalf("threads=%d: PlainCG checksum %016x, want %016x", threads, got, uint64(plainChecksum))
		}
	}
}

// The default MRHS path preconditions every solve of a chunk with one
// IC(0) factor of R_0: it must be bitwise-reproducible at a fixed
// thread count, cut the iterations of every solve kind, and land on
// the unpreconditioned trajectory to within the solver tolerance.
func TestChunkPrecondDeterministicAndFaster(t *testing.T) {
	defer parallel.SetThreads(1)
	const threads = 2
	a := precondRun(t, false, threads)
	b := precondRun(t, false, threads)
	if a.System().Checksum() != b.System().Checksum() {
		t.Fatalf("repeat runs differ: %016x vs %016x", a.System().Checksum(), b.System().Checksum())
	}
	plain := precondRun(t, true, threads)
	ra, rp := a.Report(), plain.Report()
	if a.BlockIters*2 > plain.BlockIters {
		t.Fatalf("block iterations %d, plain %d: preconditioning should at least halve them", a.BlockIters, plain.BlockIters)
	}
	if ra.MeanFirstIters*2 > rp.MeanFirstIters || ra.MeanSecondIters*2 > rp.MeanSecondIters {
		t.Fatalf("first/second iterations %.1f/%.1f vs plain %.1f/%.1f", ra.MeanFirstIters, ra.MeanSecondIters, rp.MeanFirstIters, rp.MeanSecondIters)
	}
	worst := 0.0
	for i, p := range a.System().Pos {
		if d := p.Sub(plain.System().Pos[i]).Norm(); d > worst {
			worst = d
		}
	}
	t.Logf("block iters %d vs %d, first %.1f vs %.1f, second %.1f vs %.1f, max position difference %.2e A",
		a.BlockIters, plain.BlockIters, ra.MeanFirstIters, rp.MeanFirstIters, ra.MeanSecondIters, rp.MeanSecondIters, worst)
	if worst > 1e-4 {
		t.Fatalf("preconditioned trajectory drifted %.2e A from the plain one", worst)
	}
}
